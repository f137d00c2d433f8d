"""Allow ``python -m mptsu2`` as an alias for the console script."""

from .cli import run

if __name__ == "__main__":
    run()
