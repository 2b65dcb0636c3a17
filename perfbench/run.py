"""End-to-end and per-layer benchmark for conlat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S          # every workload, in turn

Run from the root of a checkout; the package is taken from ``src`` and is not
installed.  Each workload command runs in a fresh process with
``PYTHONPATH=src`` and ``PYTHONDONTWRITEBYTECODE=1``, one at a time (closed
loop, one client).  Every command's exit code and stdout SHA-256 are checked
against values pinned from the seed commit; a mismatch counts as a failed
command.  The workloads and what they leave out are described in
``perfbench/README.md``.

The workload runs repeatedly until the next run would end after ``S`` seconds
(at least two runs); each metric is the median over runs.  With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` each run is followed by
a traced run of the same commands (``perfbench/child.py``) and the per-layer
metrics are printed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files (corpora,
outputs, spans, a result file with the run context) go to
``.bench_build/perfbench``.  ``--smoke`` runs tiny inputs for the benchmark's
own test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import time
from collections import Counter
from importlib import metadata

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(".bench_build", "perfbench")
CHILD_ENV = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
DEADLINE_S = 170  # a whole invocation must end within 180 s
SETUP_REPEATS = 3

# Each workload joins two command groups, so that every module ROADMAP items
# 2-5 target does 40-60% of the work in one workload and almost none in the
# other: lattice enumeration with congruence splitting, and URP/refinement
# checks with the ring pipeline.  Merging lets each run measure for twice as
# long within the run budget, which this host's drifting speed needs (see
# README.md).
WORKLOADS = {
    "enum_split": ("enumerate", "splitting"),
    "refine_ring": ("refinement", "ring"),
}

# Input sizes: the corpus generated at set-up, its prefixes used by commands,
# the enumeration bound and the rings.  Smoke mode shrinks every input.
SIZES = {
    False: {"corpus": 8, "split": 8, "csurp": 7, "refine": 6, "enum": 10,
            "ring": "M(1,3)xM(2,3)", "ring_pi": ()},
    True: {"corpus": 4, "split": 4, "csurp": 4, "refine": 4, "enum": 4,
           "ring": "M(1,2)", "ring_pi": ("--ring", "M(1,2)")},
}

# A006966: lattices on n = 1, 2, ... elements.
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994)

# Command label -> (exit code, stdout SHA-256), recorded at the seed commit.
# The reports do not depend on the corpus path.  ``check cong-splitting``
# exits 1 because 202 of the 300 lattices of size <= 8 are not splitting.
# The corpora <= 6 and <= 7 are cut from the <= 8 one at set-up and must be
# byte-identical to ``gen-corpus --max-size 6 / 7``.
EXPECTED = {
    "gen-corpus 4": (0, "457d4fc5af3946e5aa79eb7f82dee62f44d209825d8d23e12745cb72cfb435ad"),
    "gen-corpus 6": (0, "10954fd16a35a1f6daff79574b8bb287011b8355e7c8170a12a35b7580235142"),
    "gen-corpus 7": (0, "b74ca05483bf5c487c43b25b5f709e12c432b8d4fb8b446b810c877cb16a0c4c"),
    "gen-corpus 8": (0, "c24c469449459c5aa00777efa1b78452eba2f0bf7ba805a15bb5f9c5e8266cc3"),
    "enumerate 10": (0, "f0e52d8171f83ed3c30cb8c595ad45073265569cfcefeb30f8cc3e0a2c50f112"),
    "check cong-splitting <=8": (
        1, "97030a4060c88676eb50f3c333bfdd16ab59eac2b8c08b767ded014e2048ffd3"),
    "verify-theorem thm-csurp <=7": (
        0, "7580cc438ceb90a2fe8677f05d4c4229703d30f32ab73f56d7dc2ecf3ae9bdf8"),
    "check urp <=6": (0, "51add301af90425430b36c31847e19e96c704b96f860a9975480e746ba76d26f"),
    "check con-distributive <=6": (
        0, "0a6327bf1f3e886d5b1591ecef1161bcaa11f59fa8b6319e2306ff562e9d41eb"),
    "ring M(1,3)xM(2,3)": (0, "9b0739598682e076723206d353cf2202816b6d783d375bff1bf5d5cf7fc31b99"),
    "verify-theorem ring-pi": (
        0, "693d97601ecc138e6b5652c47844b629364081f6fd5aa2daface78748785c484"),
    # smoke mode
    "enumerate 4": (0, "457d4fc5af3946e5aa79eb7f82dee62f44d209825d8d23e12745cb72cfb435ad"),
    "check cong-splitting <=4": (
        1, "ace3a22140a193193104633253189b1baef374d58b19924e1facf7a4d7d2a917"),
    "verify-theorem thm-csurp <=4": (
        0, "682a68a29242727222894177e8c272ad08d02ac0364d3421f86a6970eb8b7116"),
    "check urp <=4": (0, "63a0457e0a8dc8e3cc2cad32cc14166a5fd5709789b96431673f83d65f13ab8c"),
    "check con-distributive <=4": (
        0, "57ef335145ddfc7643dc069e07a285b1ea81cb9475602edfdf2ba23646f5da56"),
    "ring M(1,2)": (0, "387dafb0ff4233ed4e70c8cb0735d4f91790c0c4d8579e02e30fe93cc69ba3c7"),
    "verify-theorem ring-pi --ring M(1,2)": (
        0, "20f7fa83fdaa099990e96bf8fbc2b5857c36333fadf7c99a62afa6c3f6d97579"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: span name -> what is reported for it.
LAYER_METRICS = {
    "lattice.enumerate_lattices": ("self_s", "items"),
    "lattice.canonical_form": ("calls", "self_s"),
    "lattice.FiniteLattice": ("calls", "self_s"),
    "congruence.con_lattice": ("calls", "builds", "self_s"),
    "congruence.principal_congruence": ("calls", "self_s"),
    "congruence.congruence_join": ("calls", "self_s"),
    "semilattice.has_refinement_property": ("calls", "self_s"),
    "semilattice.refinement_square": ("calls", "self_s"),
    "urp.search_urp_witness": ("calls", "self_s", "found", "budget_exceeded"),
    "urp.verify_urp_witness": ("calls", "self_s"),
    "urp.csurp_witness": ("calls", "self_s"),
    "splitting.is_congruence_splitting": ("calls", "self_s"),
    "regring.FiniteRing.from_matrix_spec": ("calls", "self_s"),
    "regring.two_sided_ideals": ("calls", "self_s"),
    "regring.principal_right_ideals": ("calls", "self_s"),
    "regring.v_monoid": ("calls", "self_s"),
    "regring.verify_pi_map": ("self_s",),
    "regring.verify_nid_id_iso": ("self_s",),
    "regring.conc_idc_iso": ("self_s",),
    "cli.read_corpus": ("self_s",),
    "cli.write_corpus": ("self_s",),
    "cli.CampaignReport.serialize": ("self_s",),
}
PROCESS_METRICS = ("cli.import_s", "cli.child_cpu_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, kinds in LAYER_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "s" if kind == "self_s" else "count"
    units.update({name: "s" for name in PROCESS_METRICS})
    return units


def slug(label: str) -> str:
    return label.replace(" ", "_").replace("<=", "le").replace("--", "")


def corpus_path(n: int) -> str:
    return os.path.join(WORK, f"corpus{n}.jsonl")


def commands(workload: str, smoke: bool) -> list[tuple[str, list[str]]]:
    """(label, child argv) for each command of a workload.  CLI commands run
    as ``-m conlat.cli ARGS``; the label keys ``EXPECTED``."""
    s = SIZES[smoke]
    cli = ["-m", "conlat.cli"]
    groups = {
        "enumerate": [
            (f"enumerate {s['enum']}",
             [os.path.join(HERE, "child.py"), "--", "enumerate", str(s["enum"])]),
        ],
        "splitting": [
            (f"check cong-splitting <={s['split']}",
             cli + ["check", "cong-splitting", "--in", corpus_path(s["split"])]),
            (f"verify-theorem thm-csurp <={s['csurp']}",
             cli + ["verify-theorem", "thm-csurp", "--in", corpus_path(s["csurp"])]),
        ],
        "refinement": [
            (f"check urp <={s['refine']}",
             cli + ["check", "urp", "--in", corpus_path(s["refine"])]),
            (f"check con-distributive <={s['refine']}",
             cli + ["check", "con-distributive", "--in", corpus_path(s["refine"])]),
        ],
        "ring": [
            (f"ring {s['ring']}", cli + ["ring", s["ring"]]),
            (" ".join(["verify-theorem", "ring-pi", *s["ring_pi"]]),
             cli + ["verify-theorem", "ring-pi", *s["ring_pi"]]),
        ],
    }
    return [cmd for group in WORKLOADS[workload] for cmd in groups[group]]


def traced_argv(argv: list[str], spans: str, trace_id: str) -> list[str]:
    """The same command, run in-process by child.py with tracing on."""
    child = os.path.join(HERE, "child.py")
    cmd = argv[2:] if argv[0] == child else ["cli", *argv[2:]]
    return [child, "--spans", spans, "--trace-id", trace_id, "--", *cmd]


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


class Runner:
    """Spawns and checks commands; owns the failure tally and the deadline."""

    def __init__(self, smoke: bool, deadline: float, expected=EXPECTED):
        self.smoke = smoke
        self.deadline = deadline
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], out: str) -> tuple[int, float, object]:
        """Run ``python ARGV`` with stdout to ``out``; return its exit code,
        wall time and the child's own rusage (from ``wait4``, so one child's
        peak RSS never carries into another's)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, out + ".err", flags, 0o644),
        ]
        left = self.deadline - time.monotonic()
        if left < 1:
            raise Timeout
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(int(left))
        try:
            _, status, usage = os.wait4(pid, 0)
        except Timeout:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
        return os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage

    def check(self, label: str, code: int, out: str) -> None:
        """Compare a finished command with its pinned exit code and digest."""
        self.attempted += 1
        want_code, want_sha = self.expected[label]
        with open(out, "rb") as fh:
            data = fh.read()
        sha = hashlib.sha256(data).hexdigest()
        problem = None
        if code != want_code:
            problem = f"exit {code}, expected {want_code}"
        elif sha != want_sha:
            problem = f"stdout sha256 {sha}, expected {want_sha}"
        elif label.startswith("enumerate"):
            sizes = Counter(json.loads(line)["n"] for line in data.splitlines())
            n = int(label.split()[1])
            got = tuple(sizes[k] for k in range(1, n + 1))
            if got != LATTICE_COUNTS[:n]:
                problem = f"lattice counts {got}, expected {LATTICE_COUNTS[:n]}"
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
            print(f"FAILED {label}: {problem}", file=sys.stderr)

    def run(self, label: str, argv: list[str], out: str):
        code, wall, usage = self.spawn(argv, out)
        self.check(label, code, out)
        return wall, usage


def setup(runner: Runner) -> list[float]:
    """Generate the largest corpus SETUP_REPEATS times (timed) and cut the
    smaller corpora from it as prefixes; return the set-up times."""
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    sizes = SIZES[runner.smoke]
    big = sizes["corpus"]
    label = f"gen-corpus {big}"
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _ = runner.run(label, ["-m", "conlat.cli", "gen-corpus", "--max-size", str(big)],
                             corpus_path(big))
        times.append(wall)
    with open(corpus_path(big)) as fh:
        lines = fh.readlines()
    for n in {sizes["split"], sizes["csurp"], sizes["refine"]} - {big}:
        with open(corpus_path(n), "w") as fh:
            fh.writelines(line for line in lines if json.loads(line)["n"] <= n)
    for n in {sizes["split"], sizes["csurp"], sizes["refine"]}:
        with open(corpus_path(n), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != runner.expected[f"gen-corpus {n}"][1]:
                runner.failed += 1
                runner.problems.append(f"corpus <= {n} differs from gen-corpus --max-size {n}")
    return times


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer counts and self times of one traced command."""
    names, spans = trace["names"], trace["spans"]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (idx, _, _, _), own in zip(spans, self_times(spans)):
        calls[names[idx]] += 1
        self_s[names[idx]] += own
    values = {}
    for span, kinds in LAYER_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                values[f"{span}.calls"] = calls[span]
            elif kind == "self_s":
                values[f"{span}.self_s"] = self_s[span]
            else:
                values[f"{span}.{kind}"] = trace["counters"].get(f"{span}.{kind}", 0)
    return values


def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict[str, float]:
    """Repeat the workload for about ``seconds``; return the median metrics."""
    rng = random.Random(seed)
    cmds = commands(workload, runner.smoke)
    runs_per_rep = 2 if trace else 1
    reps: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t_rep = time.monotonic()
        order = rng.sample(cmds, len(cmds))
        wall, cpu, rss = 0.0, 0.0, 0.0
        for label, argv in order:
            w, usage = runner.run(label, argv, os.path.join(WORK, "out", slug(label)))
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)
        rep = {"wall_s": wall, "peak_rss_mb": rss}
        if trace:
            totals: Counter = Counter()
            traced_wall = 0.0
            imports = []
            for label, argv in order:
                spans = os.path.join(WORK, "spans", f"{workload}.{slug(label)}.json")
                if os.path.exists(spans):
                    os.remove(spans)
                w, _ = runner.run(label, traced_argv(argv, spans, f"{workload}/{label}"),
                                  os.path.join(WORK, "out", slug(label) + ".traced"))
                traced_wall += w
                try:
                    with open(spans) as fh:
                        data = json.load(fh)
                except (OSError, ValueError) as exc:
                    runner.failed += 1
                    runner.problems.append(f"{label}: no spans ({exc})")
                    continue
                imports.append(data["import_s"])
                totals.update(layer_values(data))
            rep.update(totals)
            rep["cli.import_s"] = statistics.median(imports or [0.0])
            rep["cli.child_cpu_s"] = cpu
            rep["trace.overhead_s"] = traced_wall - wall
        reps.append(rep)
        durations.append(time.monotonic() - t_rep)
        elapsed = time.monotonic() - start
        if len(reps) * runs_per_rep >= 2 and elapsed + max(durations) > seconds:
            break
    if trace:
        out = {k: statistics.median(r[k] for r in reps) for k in per_layer_units()}
    else:
        out = {"wall_s": statistics.median(r["wall_s"] for r in reps),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in reps)}
    out["runs"] = reps
    return out


def git_commit() -> str:
    """HEAD of a git checkout; the benchmark also runs in exported trees."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def context() -> dict:
    """What a speed claim needs to say about where it was measured."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                         model)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": numpy,
        "child_env": {"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        "loadavg_before": os.getloadavg(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "conlat", "cli.py")):
        print("perfbench: run from a conlat checkout (src/conlat not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    ctx = context()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(workloads)
    runner = Runner(args.smoke, started + DEADLINE_S * len(workloads))
    results: dict[str, dict] = {}
    try:
        setup_times = setup(runner)
        for i, workload in enumerate(workloads):
            results[workload] = run_workload(runner, workload, args.seed + i, args.seconds,
                                             bool(args.trace))
            results[workload]["setup_s"] = statistics.median(setup_times)
    except Timeout:
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append("a command did not finish before the deadline")
    ctx["loadavg_after"] = os.getloadavg()

    units = per_layer_units() if args.trace else END_TO_END
    metrics = {}
    print(f"# context {json.dumps(ctx)}")
    for workload, values in results.items():
        prefix = "" if args.workload != "all" else workload + "."
        print(f"# {workload}: median of {len(values['runs'])} runs")
        for name, unit in units.items():
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": unit}
                print(f"{prefix + name} {values[name]:.6g} {unit}")
    fail_frac = runner.failed / max(runner.attempted, 1)
    print(f"fail_frac {fail_frac:.6g} ({runner.failed}/{runner.attempted} commands)")
    with open(os.path.join(WORK, f"result-{args.workload}-{args.trace}.json"), "w") as fh:
        json.dump({"context": ctx, "args": vars(args), "results": results,
                   "problems": runner.problems}, fh, indent=1)
    complete = len(results) == len(workloads)
    print(json.dumps({
        "correct": runner.failed == 0 and complete,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
