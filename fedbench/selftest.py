#!/usr/bin/env python3
"""Self-test of the federated-training benchmark.

Run from the repository root (builds through run.py when needed):

    python3 fedbench/selftest.py

It checks, on quick-sized federations:
  1. every workload runs correctly untraced and traced, and its result names
     exactly the BENCHMARK.json metrics of that mode, each with its unit;
  2. the untraced and the traced process at one seed print the same
     fingerprint (final-param CRC, eval_loss, wire bytes/token, sim s/Mtok,
     update fail ratio), so runs are reproducible across processes;
  3. every correctness check fails when its output is corrupted (--inject);
  4. a PHOTON_* environment override is refused without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = "7"

# (check injected, workload it applies to, trace mode)
INJECTIONS = [
    ("crc", "async_secure_churn", "0"),
    ("tokens", "async_secure_churn", "0"),
    ("eval_loss", "async_secure_churn", "0"),
    ("trace", "async_secure_churn", "1"),
    ("shares", "async_secure_churn", "0"),
    ("restore", "sync_wan_q8", "0"),
]

failures = []


def report(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "1", "--trace", trace,
           "--quick"] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")), "")
    return p.returncode, result, fingerprint


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (x["name"] for x in spec["workloads"]):
        prints = {}
        for trace in ("0", "1"):
            rc, result, prints[trace] = run(w, trace)
            what = "%s --trace %s" % (w, trace)
            report(rc == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   what + " runs correctly")
            if result is None:
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            report(got == expected[trace],
                   what + " prints every metric with its unit")
            report(all(isinstance(v.get("value"), (int, float))
                       for v in result["metrics"].values()),
                   what + " prints numeric values")
        report(prints["0"] != "" and prints["0"] == prints["1"],
               w + " fingerprint reproduces across processes")

    for check, w, trace in INJECTIONS:
        rc, result, _ = run(w, trace, ["--inject", check])
        report(rc != 0 and result is not None and not result["correct"],
               "%s: injected wrong %s output fails the run" % (w, check))

    env = dict(os.environ, PHOTON_SIMD="scalar")
    rc, result, _ = run("sync_lan_fp32", "0", env=env)
    report(rc != 0 and result is None, "PHOTON_SIMD override is refused")

    print("selftest: %s" % ("OK" if not failures else
                            "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
