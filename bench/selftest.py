"""Self-tests of the benchmark's own checks: a check that cannot fail does not count.

    python3 bench/selftest.py

For every workload gate, an honest job must pass and the same job with its
velocity sign-flipped must be reported as failed.  For cli-cold, a golden
file with one digit changed and an error case that did not fail must be
reported as failed too.  Input generation must be deterministic: the same
seed gives the same digest, another seed a different one.  Prints one line
per check and exits 1 if any check misbehaves.
"""

from __future__ import annotations

import importlib
import json
import re
import sys

from common import ROOT, WORKLOADS, digest, plain_call

sys.path.insert(0, str(ROOT / "src"))

SEED = 1
failures = 0


def expect(label: str, ok: bool) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def gate(module, job, label: str) -> None:
    """The honest job passes; the sign-flipped job, checked against the honest inputs, fails."""
    expect(f"{label}: honest job passes", module.check(job, module.run(job, plain_call)))
    try:
        flipped_ok = module.check(job, module.run(module.flip(job), plain_call))
    except Exception as exc:  # a program error on flipped input also fails the job
        print(f"     flipped job raised {type(exc).__name__}")
        flipped_ok = False
    expect(f"{label}: sign-flipped job fails", not flipped_ok)


def view(jobs) -> str:
    """The input digest run.py records (file paths left out)."""
    return digest([{k: v for k, v in j.items() if k != "csv"} for j in jobs])


def first(jobs, **match):
    return next(j for j in jobs if all(j.get(k) == v for k, v in match.items()))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("BENCHMARK.json names exactly the workloads in bench/",
           [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS))

    for name, module_name in WORKLOADS.items():
        module = importlib.import_module(module_name)
        workdir = ROOT / ".bench_out" / "selftest" / name
        jobs = module.generate(SEED, workdir / "a")
        again = module.generate(SEED, workdir / "b")
        other = module.generate(SEED + 1, workdir / "c")
        expect(f"{name}: same seed, same input digest", view(jobs) == view(again))
        expect(f"{name}: other seed, other input digest", view(jobs) != view(other))

        if name == "kinematics-batch":
            gate(module, first(jobs, kind="random-frame"), f"{name} random-frame")
            gate(module, first(jobs, kind="fixed-frame"), f"{name} fixed-frame")
        elif name == "lattice-sync":
            small = min((j for j in jobs if j["kind"] == "lattice"),
                        key=lambda j: len(j["positions"]))
            gate(module, small, f"{name} lattice n={len(small['positions'])}")
            gate(module, first(jobs, kind="scan"), f"{name} scan")
        elif name == "probe-fit":
            gate(module, first(jobs, kind="small"), f"{name} small fit")
            gate(module, first(jobs, kind="large"), f"{name} large fit")
        else:
            gate(module, first(jobs, name="transform_superluminal_06"), f"{name} transform")
            gate(module, first(jobs, name="oneway_k06"), f"{name} oneway")
            cli_checks(module, jobs)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def cli_checks(module, jobs) -> None:
    job = first(jobs, name="scan_wide")
    output = module.run(job, plain_call)
    digit = re.search(r"\d", job["golden"].split("\n", 1)[1])  # first digit after the header
    at = len(job["golden"].split("\n", 1)[0]) + 1 + digit.start()
    changed = "1" if job["golden"][at] != "1" else "2"
    perturbed = dict(job, golden=job["golden"][:at] + changed + job["golden"][at + 1:])
    expect("cli-cold scan_wide: one perturbed golden digit fails",
           module.check(job, output) and not module.check(perturbed, output))

    error_job = first(jobs, name=module.ERROR_CASE)
    code, out, err = module.run(error_job, plain_call)
    expect("cli-cold error case: exit 3 with one stderr line passes",
           module.check(error_job, (code, out, err)))
    expect("cli-cold error case: a successful run fails",
           not module.check(error_job, module.run(first(jobs, name="oneway_k06"), plain_call)))
    expect("cli-cold error case: a second stderr line fails",
           not module.check(error_job, (code, out, err + err)))
    expect("cli-cold error case: another exit code fails",
           not module.check(error_job, (2, out, err)))


if __name__ == "__main__":
    sys.exit(main())
