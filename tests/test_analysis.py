"""Tests for :mod:`repro.analysis` — the invariant-lint layer.

Three tiers:

* **fixtures** — small snippets where each rule fires exactly once,
  clean twins where it must not, and suppression round-trips;
* **lock units** — graph extraction, blocking detection, the compute
  allowlist, condition exemption, and cycle detection on synthetic
  modules;
* **the real repo** — ``src/`` gates clean, the extracted graph
  contains the session compute→state edge, and the runtime witness
  agrees with the static graph on a live overlapped-session workload.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    LockWitness,
    WitnessViolation,
    default_config,
    extract_lock_graph,
    run_analysis,
)
from repro.analysis.framework import parse_suppressions

SRC = Path(__file__).resolve().parent.parent / "src"


def findings_for(tmp_path, source, rules=None, config=None, name="snippet.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    report = run_analysis([str(path)], config=config, rules=rules)
    return report


def rule_ids(report):
    return [f.rule for f in report.unsuppressed]


# ----------------------------------------------------------------------
# DET rules
# ----------------------------------------------------------------------

class TestDetGlobalRNG:
    def test_np_global_draw_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.random.standard_normal(n)\n",
            rules=["DET-GLOBAL-RNG"],
        )
        assert rule_ids(report) == ["DET-GLOBAL-RNG"]

    def test_bare_import_random_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path, "import random\n", rules=["DET-GLOBAL-RNG"]
        )
        assert rule_ids(report) == ["DET-GLOBAL-RNG"]

    def test_stdlib_seed_fires(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f(rnd):\n    random.seed(0)\n",
            rules=["DET-GLOBAL-RNG"],
        )
        assert rule_ids(report) == ["DET-GLOBAL-RNG"]

    def test_generator_use_is_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import numpy as np\n"
            "def f(n, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.standard_normal(n)\n",
            rules=["DET-GLOBAL-RNG"],
        )
        assert rule_ids(report) == []


class TestDetWallclock:
    def test_clock_into_result_name_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import time\n"
            "def f():\n"
            "    answer = time.time()\n"
            "    return answer\n",
            rules=["DET-WALLCLOCK"],
        )
        # the assignment fires; the tainted return is the same hazard
        assert rule_ids(report).count("DET-WALLCLOCK") >= 1
        assert report.unsuppressed[0].line == 3

    def test_clock_seeding_rng_fires(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import time\n"
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(int(time.time()))\n",
            rules=["DET-WALLCLOCK"],
        )
        assert "DET-WALLCLOCK" in rule_ids(report)

    def test_timing_names_are_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import time\n"
            "def f(result):\n"
            "    t0 = time.perf_counter()\n"
            "    work(result)\n"
            "    result.latency_s = time.perf_counter() - t0\n"
            "    deadline = time.monotonic() + 5.0\n"
            "    return result\n",
            rules=["DET-WALLCLOCK"],
        )
        assert rule_ids(report) == []

    def test_metrics_constructor_is_opaque(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import time\n"
            "def run_cell(spec, start):\n"
            "    return Result(value=1.0, runtime_s=time.perf_counter() - start)\n",
            rules=["DET-WALLCLOCK"],
        )
        assert rule_ids(report) == []


class TestDetSetOrder:
    def test_set_iteration_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f(n):\n"
            "    pending = set(range(n))\n"
            "    total = 0\n"
            "    for node in pending:\n"
            "        total = total * 31 + node\n"
            "    return total\n",
            rules=["DET-SET-ORDER"],
        )
        assert rule_ids(report) == ["DET-SET-ORDER"]
        assert report.unsuppressed[0].line == 4

    def test_materializing_a_set_fires(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f(items):\n"
            "    return list({x.key for x in items})\n",
            rules=["DET-SET-ORDER"],
        )
        assert rule_ids(report) == ["DET-SET-ORDER"]

    def test_sorted_and_membership_are_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f(n, banned):\n"
            "    pending = set(range(n))\n"
            "    for node in sorted(pending):\n"
            "        if node in banned:\n"
            "            pending.discard(node)\n"
            "    return len(pending)\n",
            rules=["DET-SET-ORDER"],
        )
        assert rule_ids(report) == []


# ----------------------------------------------------------------------
# hygiene + suppressions
# ----------------------------------------------------------------------

class TestBroadExcept:
    def test_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n",
            rules=["BROAD-EXCEPT"],
        )
        assert rule_ids(report) == ["BROAD-EXCEPT"]

    def test_catch_and_convert_is_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        raise ServiceError(str(exc)) from exc\n",
            rules=["BROAD-EXCEPT"],
        )
        assert rule_ids(report) == []

    def test_narrow_handler_is_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (OSError, ValueError):\n"
            "        pass\n",
            rules=["BROAD-EXCEPT"],
        )
        assert rule_ids(report) == []


def _try_source(*clauses):
    """A ``try`` whose ``except`` clauses catch ``clauses`` in order."""
    body = "".join(f"    except {c}:\n        pass\n" for c in clauses)
    return "def f():\n    try:\n        work()\n" + body


class TestExceptShadowed:
    @pytest.mark.parametrize("clauses", [
        # repro.errors hierarchy: the probe bug's shape
        ("ServiceError", "ShardDiedError"),
        ("ReproError", "(KeyError, ShardDiedError)"),
        ("errors.ServiceError", "errors.ShardDiedError"),
        # builtins, tuples, and a repeated clause
        ("(OSError, ValueError)", "ConnectionResetError"),
        ("Exception", "ServiceError"),
        ("ValueError", "ValueError"),
    ])
    def test_fires_once(self, tmp_path, clauses):
        report = findings_for(
            tmp_path, _try_source(*clauses), rules=["EXCEPT-SHADOWED"]
        )
        assert rule_ids(report) == ["EXCEPT-SHADOWED"]

    @pytest.mark.parametrize("clauses", [
        ("ShardDiedError", "ServiceError"),
        ("ConnectionResetError", "OSError", "Exception"),
        ("(ServiceError, ShardDiedError)",),  # one clause: not shadowing
        ("ServiceError", "OSError"),
        ("FrobnicationError", "WidgetError"),  # unresolvable: skipped
    ])
    def test_clean(self, tmp_path, clauses):
        report = findings_for(
            tmp_path, _try_source(*clauses), rules=["EXCEPT-SHADOWED"]
        )
        assert rule_ids(report) == []


class TestSuppressions:
    SOURCE = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    # repro: allow[BROAD-EXCEPT] — {reason}\n"
        "    except Exception:\n"
        "        pass\n"
    )

    def test_round_trip_with_reason(self, tmp_path):
        report = findings_for(
            tmp_path,
            self.SOURCE.format(reason="work() is allowed to fail here"),
            rules=["BROAD-EXCEPT"],
        )
        assert rule_ids(report) == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "work() is allowed to fail here"

    def test_reason_is_mandatory(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    # repro: allow[BROAD-EXCEPT]\n"
            "    except Exception:\n"
            "        pass\n"
        )
        report = findings_for(tmp_path, source, rules=["BROAD-EXCEPT"])
        ids = rule_ids(report)
        # without a reason the finding survives AND the suppression is
        # itself flagged
        assert "BROAD-EXCEPT" in ids
        assert "SUPPRESS-NO-REASON" in ids

    def test_same_line_suppression(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:  # repro: allow[BROAD-EXCEPT] — boundary\n"
            "        pass\n"
        )
        report = findings_for(tmp_path, source, rules=["BROAD-EXCEPT"])
        assert rule_ids(report) == []
        assert report.suppressed[0].reason == "boundary"

    def test_multiline_reason_folds(self):
        source = (
            "# repro: allow[LOCK-HELD-BLOCKING] — first part of the\n"
            "# reason continues here\n"
            "x = 1\n"
        )
        sups = parse_suppressions(source)
        assert sups[1].reason == "first part of the reason continues here"

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        report = findings_for(
            tmp_path,
            self.SOURCE.format(reason="justified").replace(
                "BROAD-EXCEPT]", "DET-WALLCLOCK]"
            ),
            rules=["BROAD-EXCEPT"],
        )
        assert "BROAD-EXCEPT" in rule_ids(report)


# ----------------------------------------------------------------------
# WIRE rules
# ----------------------------------------------------------------------

class TestWire:
    def test_pickle_in_wire_module_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import pickle\n",
            rules=["WIRE-PICKLE"],
            name="service/models.py",
        )
        assert rule_ids(report) == ["WIRE-PICKLE"]

    def test_multiprocessing_pipe_in_wire_module_fires_once(self, tmp_path):
        """A Connection pickles every send without importing pickle."""
        report = findings_for(
            tmp_path,
            "def spawn(ctx):\n"
            "    return ctx.Pipe(duplex=True)\n",
            rules=["WIRE-PICKLE"],
            name="service/sharding.py",
        )
        assert rule_ids(report) == ["WIRE-PICKLE"]

    def test_socketpair_in_wire_module_is_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import socket\n"
            "def spawn():\n"
            "    return socket.socketpair()\n",
            rules=["WIRE-PICKLE"],
            name="service/sharding.py",
        )
        assert rule_ids(report) == []

    def test_pickle_allowed_in_persistence(self, tmp_path):
        report = findings_for(
            tmp_path,
            "import pickle\n",
            rules=["WIRE-PICKLE"],
            name="service/persistence.py",
        )
        assert rule_ids(report) == []

    def test_unregistered_error_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f():\n"
            "    raise FrobnicationError('nope')\n",
            rules=["WIRE-ERROR"],
            name="service/widgets.py",
        )
        assert rule_ids(report) == ["WIRE-ERROR"]

    def test_registered_and_builtin_errors_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f(flag):\n"
            "    if flag:\n"
            "        raise ServiceError('known')\n"
            "    raise ValueError('builtin')\n",
            rules=["WIRE-ERROR"],
            name="service/widgets.py",
        )
        assert rule_ids(report) == []

    def test_module_local_error_clean(self, tmp_path):
        report = findings_for(
            tmp_path,
            "class _LocalError(Exception):\n"
            "    pass\n"
            "def f():\n"
            "    raise _LocalError()\n",
            rules=["WIRE-ERROR"],
            name="service/widgets.py",
        )
        assert rule_ids(report) == []

    def test_front_side_files_excluded(self, tmp_path):
        report = findings_for(
            tmp_path,
            "def f():\n    raise FrobnicationError('nope')\n",
            rules=["WIRE-ERROR"],
            name="service/http.py",
        )
        assert rule_ids(report) == []


# ----------------------------------------------------------------------
# LOCK rules
# ----------------------------------------------------------------------

LOCK_FIXTURE = """\
import threading

class Engine:
    def run(self, pop):
        return pop

class Worker:
    def __init__(self):
        self.state_lock = threading.Lock()
        self.engine = Engine()

    def bad(self, pop):
        with self.state_lock:
            return self.engine.run(pop)

    def good(self, pop):
        with self.state_lock:
            staged = list(pop)
        return self.engine.run(staged)
"""

CYCLE_FIXTURE = """\
import threading

class A:
    def __init__(self):
        self.first = threading.Lock()
        self.second = threading.Lock()

    def fwd(self):
        with self.first:
            with self.second:
                return 1

    def rev(self):
        with self.second:
            with self.first:
                return 2
"""

COND_FIXTURE = """\
import threading

class Fleet:
    def __init__(self):
        self.fleet_lock = threading.Lock()
        self.fleet_cond = threading.Condition(self.fleet_lock)

    def park(self):
        with self.fleet_lock:
            self.fleet_cond.wait(1.0)
"""


class TestLockRules:
    def test_held_across_blocking_fires_once(self, tmp_path):
        report = findings_for(
            tmp_path, LOCK_FIXTURE, rules=["LOCK-HELD-BLOCKING"]
        )
        assert rule_ids(report) == ["LOCK-HELD-BLOCKING"]
        (finding,) = report.unsuppressed
        assert "Worker.bad" in finding.message
        assert "state_lock" in finding.message

    def test_lock_graph_edges_and_nodes(self, tmp_path):
        path = tmp_path / "cyc.py"
        path.write_text(CYCLE_FIXTURE)
        graph = extract_lock_graph([str(path)])
        assert set(graph.nodes) == {"A.first", "A.second"}
        assert graph.has_edge("A.first", "A.second")
        assert graph.has_edge("A.second", "A.first")

    def test_cycle_detected(self, tmp_path):
        report = findings_for(tmp_path, CYCLE_FIXTURE, name="cyc.py")
        cycle_findings = [
            f for f in report.findings if f.rule == "LOCK-ORDER-CYCLE"
        ]
        assert len(cycle_findings) == 1
        assert report.lock_graph.cycles == [["A.first", "A.second"]]

    def test_condition_wait_exempt_for_its_own_lock(self, tmp_path):
        report = findings_for(
            tmp_path, COND_FIXTURE, rules=["LOCK-HELD-BLOCKING"]
        )
        assert rule_ids(report) == []

    def test_compute_lock_allowlist(self, tmp_path):
        source = LOCK_FIXTURE.replace("state_lock", "compute_lock")
        config = AnalysisConfig(compute_locks=frozenset({"Worker.compute_lock"}))
        report = findings_for(
            tmp_path, source, rules=["LOCK-HELD-BLOCKING"], config=config
        )
        assert rule_ids(report) == []

    def test_blocking_propagates_through_call_summaries(self, tmp_path):
        source = LOCK_FIXTURE + (
            "\n"
            "class Outer:\n"
            "    def __init__(self):\n"
            "        self.outer_lock = threading.Lock()\n"
            "        self.worker = Worker()\n"
            "\n"
            "    def indirect(self, pop):\n"
            "        with self.outer_lock:\n"
            "            return self.worker.good(pop)\n"
        )
        report = findings_for(
            tmp_path, source, rules=["LOCK-HELD-BLOCKING"]
        )
        lines = sorted(f.line for f in report.unsuppressed)
        # Worker.bad fires as before; Outer.indirect fires because
        # Worker.good's summary blocks (engine.run), even though good
        # itself holds no lock across it
        assert len(lines) == 2

    def test_lock_suppression_round_trip(self, tmp_path):
        source = LOCK_FIXTURE.replace(
            "            return self.engine.run(pop)",
            "            # repro: allow[LOCK-HELD-BLOCKING] — fixture says so\n"
            "            return self.engine.run(pop)",
        )
        report = findings_for(
            tmp_path, source, rules=["LOCK-HELD-BLOCKING"]
        )
        assert rule_ids(report) == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# the real repository
# ----------------------------------------------------------------------

class TestRealRepo:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis([str(SRC)], config=default_config())

    def test_gate_is_clean(self, report):
        assert report.unsuppressed == [], [
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in report.unsuppressed
        ]

    def test_every_suppression_has_a_reason(self, report):
        assert report.suppressed, "expected deliberate suppressions in src/"
        for f in report.suppressed:
            assert f.reason.strip(), f"{f.path}:{f.line} has no reason"

    def test_lock_graph_has_session_edges(self, report):
        graph = report.lock_graph
        # the acceptance-criteria edge: the session compute lock is
        # taken outside the state lock on every update path
        assert graph.has_edge("Session.compute_lock", "Session.lock")
        assert graph.has_edge("Session.lock", "SessionManager._lock")
        assert not graph.has_edge("Session.lock", "Session.compute_lock")
        assert graph.cycles == []

    def test_lock_graph_sees_property_acquisitions(self, report):
        # handle.alive is a @property acquiring the pending lock under
        # the fleet lock — invisible to naive call analysis
        assert report.lock_graph.has_edge(
            "ShardedPartitionService._fleet_lock",
            "_ShardHandle._pending_lock",
        )

    def test_node_definition_sites_resolve(self, report):
        graph = report.lock_graph
        node = graph.nodes["Session.lock"]
        assert node.path.endswith("sessions.py")
        assert graph.node_at(node.path, node.line).name == "Session.lock"


# ----------------------------------------------------------------------
# runtime witness
# ----------------------------------------------------------------------

WITNESS_FIXTURE = """\
import threading

class Pair:
    def __init__(self):
        self.outer = threading.Lock()
        self.inner = threading.Lock()

    def nested(self):
        with self.outer:
            with self.inner:
                return 1

    def reversed_nesting(self):
        with self.inner:
            with self.outer:
                return 2
"""


class TestLockWitness:
    def _load(self, tmp_path, name="witmod"):
        path = tmp_path / f"{name}.py"
        path.write_text(WITNESS_FIXTURE)
        import importlib.util

        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        return path, spec, module

    def test_observed_subgraph_passes(self, tmp_path):
        path, spec, module = self._load(tmp_path, "witmod_ok")
        with LockWitness(source_prefixes=[str(tmp_path)]) as w:
            spec.loader.exec_module(module)
            module.Pair().nested()
        graph = extract_lock_graph([str(path)])
        mapped = w.assert_subgraph_of(graph)
        assert ("Pair.outer", "Pair.inner") in mapped

    def test_contradicting_order_fails(self, tmp_path):
        path, spec, module = self._load(tmp_path, "witmod_bad")
        with LockWitness(source_prefixes=[str(tmp_path)]) as w:
            spec.loader.exec_module(module)
            module.Pair().reversed_nesting()
        # static graph built from a copy whose reversed_nesting is
        # removed: the observed inner->outer edge has no static twin
        trimmed = tmp_path / "trimmed.py"
        trimmed.write_text(
            WITNESS_FIXTURE[: WITNESS_FIXTURE.index("    def reversed")]
        )
        graph = extract_lock_graph([str(trimmed)])
        # node_at keys by (file, line): creation lines match the fixture
        with pytest.raises(WitnessViolation):
            w.assert_subgraph_of(
                _rehome_graph(graph, str(trimmed), str(path))
            )

    def test_probe_records_held_locks(self, tmp_path):
        path, spec, module = self._load(tmp_path, "witmod_probe")
        with LockWitness(source_prefixes=[str(tmp_path)]) as w:
            spec.loader.exec_module(module)
            w.probe(module.Pair, "nested")
            pair = module.Pair()
            with pair.inner:
                pass
            pair.nested()
        graph = extract_lock_graph([str(path)])
        # nested() itself ran with nothing held
        assert w.probe_runs("nested") == [()]
        assert w.assert_never_held_during(graph, "Pair.inner", "nested") == 1

    def test_factories_restored_on_exit(self, tmp_path):
        real = threading.Lock
        with LockWitness(source_prefixes=[str(tmp_path)]):
            assert threading.Lock is not real
        assert threading.Lock is real


def _rehome_graph(graph, old_path, new_path):
    """Point a static graph's node definition sites at another file
    (the witness keys by creation site)."""
    from repro.analysis import LockGraph, LockNode

    out = LockGraph()
    for node in graph.nodes.values():
        out.add_node(
            LockNode(node.name, node.kind, new_path, node.line)
        )
    for (a, b), sites in graph.edges.items():
        for p, l in sites:
            out.add_edge(a, b, p, l)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCLI:
    def _main(self, *argv):
        from repro.analysis.__main__ import main

        return main(list(argv))

    def test_gate_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert self._main(str(dirty), "--gate", "--quiet") == 1
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert self._main(str(clean), "--gate", "--quiet") == 0

    def test_json_report(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        out = tmp_path / "report.json"
        assert self._main(str(dirty), "--json", str(out), "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["unsuppressed"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET-GLOBAL-RNG"
        assert finding["fingerprint"]

    def test_baseline_round_trip(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        baseline = tmp_path / "baseline.json"
        assert (
            self._main(
                str(dirty), "--write-baseline", str(baseline), "--quiet"
            )
            == 0
        )
        # tolerated by the baseline…
        assert (
            self._main(
                str(dirty), "--gate", "--baseline", str(baseline), "--quiet"
            )
            == 0
        )
        # …but a new finding still gates
        dirty.write_text("import random\nimport random as r2\n")
        assert (
            self._main(
                str(dirty), "--gate", "--baseline", str(baseline), "--quiet"
            )
            == 1
        )

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC), "--gate",
             "--quiet"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert self._main(str(bad), "--quiet") == 2
