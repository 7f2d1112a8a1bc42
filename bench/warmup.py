"""One set-up of a workload, run as a fresh process to time ``setup_s``.

    python bench/warmup.py WORKLOAD

Imports the program (``synchrony_lab``, or ``synchrony_lab.cli`` for
cli-cold), runs one untimed warm-up job, then prints the seconds it spent
generating the warm-up input, which the parent subtracts.  The parent
times the process from its start to that line.
"""

import importlib
import io
import sys
import time


def main(workload: str) -> None:
    generating = 0.0
    if workload == "cli-cold":
        import synchrony_lab.cli

        synchrony_lab.cli.main(["oneway", "--k", "0.6"], stdout=io.StringIO(),
                               stderr=io.StringIO())
    else:
        import synchrony_lab  # noqa: F401  (the import being timed)
        from common import WORKLOADS, plain_call

        module = importlib.import_module(WORKLOADS[workload])
        start = time.perf_counter()
        job = module.warmup_job()
        generating = time.perf_counter() - start
        if not module.check(job, module.run(job, plain_call)):
            sys.exit("warm-up job failed its check")
    print(repr(generating), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
