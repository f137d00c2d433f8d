"""Start ``python -m mptsu2`` and the ``mptsu2`` console script."""

import gc


def start():
    """Import the CLI with the cyclic collector paused, then run it.

    Importing the CLI (numpy most of all) builds about 31k container
    objects and frees few of them, so left on the collector runs about 30
    young collections over them, 7-10 ms of a process.  Paused, the import
    graph is frozen (``gc.freeze``) into the permanent generation, which no
    collection scans, and the collector is on again before ``cli.run``: the
    command is collected as before.  The cost is the import's cyclic
    garbage, about 0.2 MB, which is never freed.  Importing this module
    does none of this, and it imports nothing before the pause.  Like
    ``cli.run`` it does not return.
    """
    gc.disable()
    try:
        from .cli import run

        gc.freeze()
    finally:
        gc.enable()
    run()


if __name__ == "__main__":
    start()
