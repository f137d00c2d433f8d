"""Names of the verification suites, apart from :mod:`mptsu2.checks` so that
the CLI parser can offer them without importing the suites' code."""

SUITES = ("algebra", "states", "matelem", "expansion", "vibron", "all")
