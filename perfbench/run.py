"""cphi benchmark: cold-CLI `deep` and `wide` workloads and a warm `session`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke            # self-test of the harness
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

A run makes closed-loop passes over the workload's ops until the next pass
would end after --seconds.  Before each pass it starts PROBES bare
interpreters that only import `cphi.cli`, so that set-up time is sampled
across the run.  With --trace 1 the second pass is traced: it wraps the
package's layers from outside (tracer.py) and gives the per-layer metrics;
the other passes are untraced and give the overhead's baseline.

Every op's coefficient content is checked against golden.json; ops_total and
ops_failed are the result's "attempted" and "failed".  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics (--trace 0) or the per-layer ones (--trace 1) named in
BENCHMARK.json.  The first run in a checkout also re-times the ROADMAP's
baseline commands once, as a note.  Per-run details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from content import cli_digest
from tracer import CACHED, FUNCTIONS, METHODS, self_times
from workloads import WORKLOADS, golden_ops, pass_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

PROBES = 3  # bare `import cphi.cli` starts before each pass, for setup_s
RUN_LIMIT_S = 170  # a run must exit within 180 s; children are killed past this
# wall times of `cphi verify --N {5,13,23} --nmax 200` recorded in ROADMAP.md
ROADMAP_BASELINE_S = {5: 0.22, 13: 1.19, 23: 5.26}
LAYERS = ("qseries", "theta", "eta_partition", "verify", "cli", "gauss_sums",
          "characters", "eisenstein")
EULER_PARTITION = ("qseries.euler_coefficients", "eta_partition.partition_numbers")


@dataclass
class Proc:
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float | None  # start until `cphi.cli` was imported
    cpu_s: float
    rss_mb: float
    killed: bool


def spawn(spec: dict, deadline: float) -> Proc:
    """Run child.py with `spec`; per-child CPU and peak RSS come from wait4."""
    ready_r, ready_w = os.pipe()
    spec = dict(spec, ready_fd=ready_w, src=str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                pass_fds=(ready_w,), env=env, cwd=ROOT)
        os.close(ready_w)
        timer = threading.Timer(max(deadline - perf_counter(), 0.1), kill)
        timer.start()
        try:
            ready = os.read(ready_r, 1)
            ready_at = perf_counter()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            with lock:
                state["reaped"] = True
            os.close(ready_r)
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Proc(
        exit=proc.returncode,
        stdout=out.decode(),
        stderr=stderr[-2000:],
        wall_s=end - start,
        setup_s=ready_at - start if ready else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        killed=state["killed"],
    )


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    ops: list = field(default_factory=list)  # one dict per op
    setups: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    killed: bool = False
    layers: dict = field(default_factory=dict)


def _trace_spec(traced: bool, path: Path, proc: str):
    return {"path": str(path), "proc": proc} if traced else None


def run_pass(workload, ops, traced, golden, key, trace_path, deadline) -> Pass:
    p = Pass(traced)
    if traced:
        trace_path.write_text("")
    start = perf_counter()
    if workload.kind == "cli":
        for op in ops:
            proc = spawn({"mode": "cli", "argv": list(op.argv),
                          "trace": _trace_spec(traced, trace_path, op.id)}, deadline)
            want = golden.get(f"{key}/{op.id}")
            got = cli_digest(op.content, proc.stdout)
            ok = want is not None and proc.exit == want["exit"] and got == want["digest"]
            p.ops.append({"op": op.id, "ok": ok, "exit": proc.exit, "digest": got,
                          "wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "rss_mb": proc.rss_mb,
                          "stderr": proc.stderr if not ok else ""})
            p.setups.append(proc.setup_s)
            p.rss_mb.append(proc.rss_mb)
            if proc.killed:
                p.killed = True
                break
    else:
        spec = {"mode": "session", "ops": [[op.id, op.kind, list(op.args)] for op in ops],
                "trace": _trace_spec(traced, trace_path, "session")}
        proc = spawn(spec, deadline)
        lines = {}
        for line in proc.stdout.splitlines():
            try:
                rec = json.loads(line)
            except ValueError:  # a line cut short by a crash
                continue
            lines[rec["op"]] = rec
        for op in ops:
            rec = lines.get(op.id, {})
            want = golden.get(f"{key}/{op.id}")
            ok = (proc.exit == 0 and want is not None
                  and rec.get("digest") == want["digest"])
            p.ops.append({"op": op.id, "ok": ok, "digest": rec.get("digest"),
                          "wall_s": rec.get("s", 0.0)})
        if any(not o["ok"] for o in p.ops):
            p.ops[-1]["stderr"] = proc.stderr
        p.setups.append(proc.setup_s)
        p.rss_mb.append(proc.rss_mb)
        p.killed = proc.killed
    p.wall_s = perf_counter() - start
    if traced:
        p.layers = layer_metrics(trace_path)
    return p


# -- per-layer metrics from spans -------------------------------------------

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)


def layer_metrics(trace_path: Path) -> dict:
    procs: dict = {}
    counters = []
    for line in trace_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("counters"):
            counters.append(rec)
        else:
            procs.setdefault(rec["proc"], []).append(rec)
    calls, self_s, errors = Counter(), Counter(), Counter()
    attrs: dict = {"trunc": 0, "products": 0, "bits_mul": 0, "terms": 0, "arg": 0,
                   "bits_theta": 0, "bytes": 0}
    for spans in procs.values():
        for span, own in self_times(spans):
            name = span["name"]
            calls[name] += 1
            self_s[name] += own
            errors[name.split(".")[0]] += span.get("error", 0)
            if name == "qseries.euler_coefficients":
                attrs["trunc"] = max(attrs["trunc"], span["trunc"])
            elif name == "qseries.mul":
                attrs["products"] += span["products"]
                attrs["bits_mul"] = max(attrs["bits_mul"], span["bits"])
            elif name == "qseries.inverse":
                attrs["terms"] += span["terms"]
            elif name == "eta_partition.partition_numbers":
                attrs["arg"] = max(attrs["arg"], span["arg"])
            elif name == "theta.theta_series":
                attrs["bits_theta"] = max(attrs["bits_theta"], span["bits"])
            elif name == "verify.report":
                attrs["bytes"] += span["bytes"]
    cache = {name: [0, 0] for name in CACHED}
    for rec in counters:
        for name, (hits, misses) in rec["cache"].items():
            cache[name][0] += hits
            cache[name][1] += misses

    def ratio(names):
        hits = sum(cache[n][0] for n in names)
        total = hits + sum(cache[n][1] for n in names)
        return hits / total if total else 0.0

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.errors"] = errors[layer]
    m["qseries.euler_coefficients.max_trunc"] = attrs["trunc"]
    m["qseries.mul.term_products"] = attrs["products"]
    m["qseries.mul.max_coeff_bits"] = attrs["bits_mul"]
    m["qseries.inverse.terms"] = attrs["terms"]
    m["eta_partition.partition_numbers.max_arg"] = attrs["arg"]
    m["theta.theta_series.max_coeff_bits"] = attrs["bits_theta"]
    m["theta.theta_series.cache_hit_ratio"] = ratio(["theta.theta_series"])
    m["verify.cache_hit_ratio"] = ratio([n for n in CACHED if n.startswith("verify.")])
    m["verify.report.serialize_s"] = self_s["verify.report"]
    m["verify.report.bytes"] = attrs["bytes"]
    m["cli.import_s"] = statistics.median(r["import_s"] for r in counters) if counters else 0.0
    m["euler_partition.self_s"] = sum(self_s[n] for n in EULER_PARTITION)
    # wrapper bookkeeping and counters, timed inside the traced processes
    m["trace.instrument_s"] = sum(r["instrument_s"] for r in counters)
    ranked = sorted(((v, k) for k, v in self_s.items()), reverse=True)
    m["_ranking"] = [[k, v] for v, k in ranked]
    return m


def unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(".bytes"):
        return "B"
    return "count"


# -- one run -----------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    passes: list
    probe_setups: list
    killed: bool

    @property
    def untraced(self):
        return [p for p in self.passes if not p.traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.ops) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.passes for o in p.ops if not o["ok"])

    def digests_agree(self) -> bool:
        """Traced and untraced passes produced the same content for each op."""
        seen: dict = {}
        for p in self.passes:
            for o in p.ops:
                seen.setdefault(o["op"], set()).add(o["digest"])
        return all(len(d) == 1 for d in seen.values())

    def end_to_end(self) -> dict:
        passes = self.untraced
        setups = [s for s in self.probe_setups if s is not None]
        setups += [s for p in passes for s in p.setups if s is not None]
        return {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "op_max_s": statistics.median(max(o["wall_s"] for o in p.ops) for p in passes),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(max(p.rss_mb) for p in passes),
        }

    def per_layer(self) -> dict:
        (traced,) = [p for p in self.passes if p.traced]
        m = {k: v for k, v in traced.layers.items() if not k.startswith("_")}
        m["trace.wall_s"] = traced.wall_s
        m["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in self.untraced)
        return m


def run_workload(name, seed, seconds, trace, scale, golden) -> Run:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    probes, passes = [], []
    trace_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    while True:
        probes += [spawn({"mode": "probe", "trace": None}, deadline) for _ in range(PROBES)]
        traced = trace and len(passes) == 1
        ops = pass_ops(workload, scale, rng)
        passes.append(run_pass(workload, ops, traced, golden, f"{name}/{scale}",
                               trace_path, deadline))
        if passes[-1].killed:
            break
        if trace and len(passes) == 1:
            continue
        estimate = statistics.median(p.wall_s for p in passes if not p.traced)
        now = perf_counter()
        if now - start + estimate > seconds or now + estimate > deadline:
            break
    return Run(name, seed, trace, passes, [p.setup_s for p in probes],
               any(p.killed for p in probes + passes))


# -- provenance --------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(run: Run) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cphi").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def baseline_note(deadline: float) -> list:
    """Re-time the ROADMAP's `verify --N {5,13,23} --nmax 200` once; not a gate."""
    lines = []
    for level, roadmap_s in ROADMAP_BASELINE_S.items():
        argv = ["verify", "--N", str(level), "--nmax", "200"]
        proc = spawn({"mode": "cli", "argv": argv, "trace": None}, deadline)
        lines.append(f"note (not a gate): cphi {' '.join(argv)}: {proc.wall_s:.2f} s "
                     f"here, {roadmap_s:.2f} s in ROADMAP.md (exit {proc.exit})")
    return lines


# -- modes -------------------------------------------------------------------

def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["ops"]


def how(run: Run, name: str) -> str:
    """How a printed metric was obtained."""
    if name == "qseries.mul.term_products":
        return "computed from operand nonzeros and lengths, not timed"
    if run.trace:
        return "the traced pass"
    if name == "setup_s":
        starts = len(run.probe_setups) + sum(len(p.setups) for p in run.untraced)
        return f"median of {starts} process starts"
    return f"median of {len(run.untraced)} passes"


def report(run: Run, bench: dict, notes: list) -> dict:
    prov = provenance(run)
    print("cphi benchmark: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for line in notes:
        print(line)
    for i, p in enumerate(run.passes):
        kind = "traced" if p.traced else "untraced"
        print(f"pass {i} ({kind}): wall {p.wall_s:.3f} s")
        for o in p.ops:
            extra = "".join(f" {k} {o[k]:.3f}" for k in ("cpu_s", "rss_mb") if k in o)
            print(f"  {o['op']}: {'ok' if o['ok'] else 'FAILED'} {o['wall_s']:.3f} s{extra}")
            if not o["ok"] and o.get("stderr"):
                print("    " + o["stderr"].strip().replace("\n", "\n    "))
    computed = run.per_layer() if run.trace else run.end_to_end()
    listed = bench["per_layer"] if run.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": unit(m["name"])}
               for m in listed}
    for name, v in metrics.items():
        print(f"{name} {v['value']} {v['unit']} ({how(run, name)})")
    print(f"ops_failed {run.failed} count")
    print(f"ops_total {run.attempted} count")
    if run.trace:
        (traced,) = [p for p in run.passes if p.traced]
        ranking = traced.layers["_ranking"]
        print("self time by span: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranking[:6]))
        groups = {k: v for k, v in ranking if k not in EULER_PARTITION}
        groups["Euler/partition (" + " + ".join(EULER_PARTITION) + ")"] = \
            computed["euler_partition.self_s"]
        top = max(groups, key=groups.get)
        print(f"largest self time: {top} {groups[top]:.3f} s; "
              f"tracing overhead {computed['trace.overhead_s']:.3f} s")
    correct = run.failed == 0 and run.digests_agree() and not run.killed
    if not run.digests_agree():
        print("error: traced and untraced passes produced different content")
    detail = {"provenance": prov, "notes": notes, "metrics": computed,
              "passes": [vars(p) for p in run.passes], "probe_setup_s": run.probe_setups}
    (OUT / f"result-{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def smoke(bench: dict, golden: dict) -> int:
    """Check the harness itself at tiny sizes; exit status 0 when it holds."""
    problems = []
    listed = [(w["name"], w["why"]) for w in bench["workloads"]]
    if listed != [(w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        run = run_workload(name, 1, 0, True, "smoke", golden)
        for listed, computed in ((bench["end_to_end"], run.end_to_end()),
                                 (bench["per_layer"], run.per_layer())):
            for m in listed:
                if m["name"] not in computed:
                    problems.append(f"{name}: metric {m['name']} missing")
                elif m["unit"] != unit(m["name"]):
                    problems.append(f"{name}: {m['name']} has unit {unit(m['name'])}, "
                                    f"BENCHMARK.json says {m['unit']}")
        if run.failed or not run.digests_agree() or run.killed:
            problems.append(f"{name}: {run.failed} of {run.attempted} ops failed")
        print(f"smoke {name}: {run.attempted} ops, {run.failed} failed")
    wrong = dict(golden)
    first = next(k for k in sorted(wrong) if k.startswith("deep/smoke/"))
    wrong[first] = dict(wrong[first], digest="0" * 16)
    run = run_workload("deep", 1, 0, False, "smoke", wrong)
    print(f"smoke wrong golden digest for {first}: {run.failed} op(s) failed")
    if run.failed != 1:
        problems.append(f"a wrong golden digest gave ops_failed={run.failed}, not 1")
    for p in problems:
        print("smoke problem: " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def record_golden() -> int:
    """Record exit codes and content digests of every op from the code under src/."""
    ops = {}
    deadline = perf_counter() + 3600
    for name, workload in WORKLOADS.items():
        for scale in ("full", "smoke"):
            key = f"{name}/{scale}"
            todo = golden_ops(workload, scale)
            p = run_pass(workload, todo, False, {}, key, None, deadline)
            for op, rec in zip(todo, p.ops):
                if rec["digest"] is None:
                    print(f"error: {key}/{op.id} produced no readable content", file=sys.stderr)
                    return 1
                entry = {"digest": rec["digest"]}
                if "exit" in rec:
                    entry["exit"] = rec["exit"]
                ops[f"{key}/{op.id}"] = entry
            print(f"recorded {key}: {len(todo)} ops in {p.wall_s:.1f} s")
    GOLDEN.write_text(json.dumps({"recorded_at": git_commit(), "ops": ops},
                                 indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "cphi" / "__init__.py").is_file():
        print(f"error: no cphi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden()
    bench, golden = load_bench(), load_golden()
    if args.smoke:
        return smoke(bench, golden)
    if args.workload is None:
        parser.error("--workload is required")
    notes = []
    marker = OUT / "baseline-note.txt"
    if not marker.exists():
        notes = baseline_note(perf_counter() + RUN_LIMIT_S)
        marker.write_text("\n".join(notes) + "\n")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full", golden)
    print(json.dumps(report(run, bench, notes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
