"""Start CLI processes from a small process, so their peak RSS is their own.

Linux carries a process's peak RSS across ``execve``, and a child made by
fork or vfork starts from its parent's, so a CLI process started by the
benchmark process (which holds numpy and the references) would report that
process's peak when its own is smaller.  This helper starts before the
benchmark imports numpy, stays small, and runs one command per request:
a JSON argv list per stdin line in, a JSON result per stdout line out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

COMMAND_TIMEOUT_S = 150.0


def run(argv: list[str]) -> dict:
    """Run one process to completion; wall time covers start-up through reaping."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    reader.start()
    watchdog.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return {"exit_code": proc.returncode,
            "stdout": out.decode("utf-8", "replace"),
            "stderr": b"".join(err).decode("utf-8", "replace"),
            "seconds": perf_counter() - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
