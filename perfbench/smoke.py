"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  It runs every workload at the tiny size,
untraced and traced, and checks that each prints exactly the metrics
``BENCHMARK.json`` names, with their units, a correct result and the
expected failed share.  It then shows that corrupted outputs trip the
matching checks, and that the launcher refuses a directory without the
program.  Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the cli workload's resume continuation fails until the resume fault is fixed
FAILED_SHARE = {"unet_a2mdu": 0.0, "hytec_distill": 0.0, "cli_pipeline": 1 / 7}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_runs(spec):
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(name, trace)
            assert p.returncode == 0, f"{name} trace={trace}:\n{p.stderr}"
            res = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True, f"{name}: incorrect\n{p.stderr}"
            assert res["failed"] / res["attempted"] == FAILED_SHARE[name], res
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: {set(got) ^ set(want)}"
            print(f"ok  {name} trace={trace}: {res['attempted']} attempted, "
                  f"{res['failed']} failed")


def flip_first_value(path):
    """Edit one stored number of a TNSR file in place."""
    import workloads
    arr = workloads.read_tnsr(path)
    header = os.path.getsize(path) - arr.nbytes
    with open(path, "r+b") as fh:
        fh.seek(header)
        fh.write(np.asarray([arr.flat[0] + 1.0], dtype=arr.dtype).tobytes())


def check_corruption(work):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import canopyheights.train as tr
    import workloads

    clock = time.perf_counter
    wl = workloads.make("cli_pipeline", "tiny", clock)
    st = wl.setup(3, os.path.join(work, "cli"))
    os.makedirs(os.path.join(work, "cli-round"))
    rnd = wl.run_round(st, os.path.join(work, "cli-round"))
    assert wl.check(st, rnd)[0] == []
    flip_first_value(os.path.join(rnd.out["rdir"], "eval", "pred_000.tnsr"))
    problems = wl.check(st, rnd)[0]
    assert any(p.startswith("eval: overall.csv") for p in problems), problems
    print("ok  an edited prediction .tnsr trips the overall.csv check")

    wl = workloads.make("unet_a2mdu", "tiny", clock)
    st = wl.setup(3, None)
    rdir = os.path.join(work, "unet")
    rnd = wl.run_round(st, rdir)
    assert wl.check(st, rnd)[0] == []
    ckpt = tr.latest_checkpoint(rnd.out["ckpt"])[1]
    flip_first_value(os.path.join(ckpt, "head.conv_out.kernel.tnsr"))
    problems = wl.check(st, rnd)[0]
    assert any("reloaded checkpoint" in p for p in problems), problems
    print("ok  an edited checkpoint .tnsr trips the reload check")

    wl = workloads.make("hytec_distill", "tiny", clock)
    st = wl.setup(3, None)
    rnd = wl.run_round(st, os.path.join(work, "hytec"))
    assert wl.check(st, rnd)[0] == []
    st["teachers"][0].params.stem_s2.bias.data[0] += 1e-12
    problems = wl.check(st, rnd)[0]
    assert any("teacher_s1 changed" in p for p in problems), problems
    print("ok  a changed teacher parameter trips the frozen-teacher check")


def check_refuses_bare_directory(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = run("unet_a2mdu", 0, cwd=bare)
    assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout)
    print("ok  a directory without the program is refused")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_runs(spec)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(HERE, ".work"))
    try:
        check_corruption(work)
        check_refuses_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
