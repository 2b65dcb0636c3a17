"""Run one benchmark command in a fresh process, optionally traced.

    python perfbench/child.py [--spans OUT --trace-id ID] -- enumerate N
    python perfbench/child.py [--spans OUT --trace-id ID] -- cli ARGV...

``enumerate N`` writes the corpus of all lattices with at most N elements to
stdout through the public API (``write_corpus(enumerate_lattices(N))``);
``cli ARGV`` calls ``conlat.cli.main(ARGV)``.  With ``--spans`` the public
functions in ``LAYERS`` are wrapped before the command runs, one span is kept
in memory per call, and the spans are written to OUT as JSON when the command
ends.  The exit code is the command's.

Needs ``src`` on ``PYTHONPATH``; the benchmark sets it.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute path, span name).  A span name is the metric
# prefix: ``<module>.<function>``.
LAYERS = (
    ("conlat.lattice", "enumerate_lattices", "lattice.enumerate_lattices"),
    ("conlat.lattice", "canonical_form", "lattice.canonical_form"),
    ("conlat.lattice", "FiniteLattice.__init__", "lattice.FiniteLattice"),
    ("conlat.congruence", "con_lattice", "congruence.con_lattice"),
    ("conlat.congruence", "principal_congruence", "congruence.principal_congruence"),
    ("conlat.congruence", "congruence_join", "congruence.congruence_join"),
    ("conlat.semilattice", "has_refinement_property", "semilattice.has_refinement_property"),
    ("conlat.semilattice", "refinement_square", "semilattice.refinement_square"),
    ("conlat.urp", "search_urp_witness", "urp.search_urp_witness"),
    ("conlat.urp", "verify_urp_witness", "urp.verify_urp_witness"),
    ("conlat.urp", "csurp_witness", "urp.csurp_witness"),
    ("conlat.splitting", "is_congruence_splitting", "splitting.is_congruence_splitting"),
    ("conlat.regring", "FiniteRing.from_matrix_spec", "regring.FiniteRing.from_matrix_spec"),
    ("conlat.regring", "two_sided_ideals", "regring.two_sided_ideals"),
    ("conlat.regring", "principal_right_ideals", "regring.principal_right_ideals"),
    ("conlat.regring", "v_monoid", "regring.v_monoid"),
    ("conlat.regring", "verify_pi_map", "regring.verify_pi_map"),
    ("conlat.regring", "verify_nid_id_iso", "regring.verify_nid_id_iso"),
    ("conlat.regring", "conc_idc_iso", "regring.conc_idc_iso"),
    ("conlat.cli", "read_corpus", "cli.read_corpus"),
    ("conlat.cli", "write_corpus", "cli.write_corpus"),
    ("conlat.cli", "CampaignReport.serialize", "cli.CampaignReport.serialize"),
)


class Tracer:
    """Spans ``[name, start, end, parent]`` in call order, ``parent`` being
    the index of the enclosing span or -1, plus counters of outcomes that
    only the call site can see."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so that time the consumer spends
        between items is not charged to the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                self.count(name + ".items")
                yield item

        return traced

    def install(self) -> None:
        """Replace every ``LAYERS`` function by its traced wrapper, in its
        defining module and in every ``conlat`` module that imported it by
        name, so internal calls are traced too."""
        import conlat.cli  # noqa: F401  (loads every conlat module)
        from conlat import urp

        modules = [m for k, m in sys.modules.items() if k == "conlat" or k.startswith("conlat.")]
        for module_name, path, name in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if name == "lattice.enumerate_lattices":
                traced = self.wrap_generator(name, fn)
            elif name == "congruence.con_lattice":
                traced = self._wrap_con_lattice(self.wrap(name, fn))
            elif name == "urp.search_urp_witness":
                traced = self._wrap_search(self.wrap(name, fn), urp.SearchBudgetExceeded)
            else:
                traced = self.wrap(name, fn)
            setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)

    def _wrap_con_lattice(self, traced):
        def con_lattice(L):
            if getattr(L, "_con_lattice", None) is None:
                self.count("congruence.con_lattice.builds")
            return traced(L)

        return functools.wraps(traced)(con_lattice)

    def _wrap_search(self, traced, budget_exceeded):
        def search_urp_witness(*args, **kwargs):
            try:
                w = traced(*args, **kwargs)
            except budget_exceeded:
                self.count("urp.search_urp_witness.budget_exceeded")
                raise
            if w is not None:
                self.count("urp.search_urp_witness.found")
            return w

        return functools.wraps(traced)(search_urp_witness)

    def dump(self, path: str, trace_id: str, import_s: float) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "trace_id": trace_id,
                    "import_s": import_s,
                    "counters": self.counters,
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def run_command(cmd: list[str]) -> int:
    if cmd[0] == "enumerate" and len(cmd) == 2:
        from conlat.cli import write_corpus
        from conlat.lattice import enumerate_lattices

        n = int(cmd[1])
        write_corpus(enumerate_lattices(n, bound=n), sys.stdout)
        return 0
    if cmd[0] == "cli":
        from conlat.cli import main

        return main(cmd[1:])
    raise SystemExit(f"child.py: unknown command {cmd!r}")


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cmd = argv[:sep], argv[sep + 1 :]
    spans_path = trace_id = None
    if opts:
        if len(opts) != 4 or opts[0] != "--spans" or opts[2] != "--trace-id":
            raise SystemExit("usage: child.py [--spans OUT --trace-id ID] -- COMMAND...")
        spans_path, trace_id = opts[1], opts[3]
    t0 = time.perf_counter()
    import conlat.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if spans_path is None:
        return run_command(cmd)
    tracer = Tracer()
    tracer.install()
    try:
        return run_command(cmd)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, trace_id, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
