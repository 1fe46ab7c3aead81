"""Self-tests for the benchmark: generators, oracles, tracing and load.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_layer_metric_names  # noqa: E402

import limitgap as lg  # noqa: E402


# -- generators ------------------------------------------------------------


def test_same_seed_gives_identical_inputs_and_another_seed_does_not():
    makers = [
        lambda s: gen.scan_round(s, 3),
        lambda s: gen.builtin_round(s, 3),
        lambda s: gen.cli_round(s, 3),
    ]
    for make in makers:
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_printed_events_parse_back_to_the_generated_tree():
    for query in gen.scan_round(11, 0):
        if query[0] == "event":
            assert lg.parse_event(query[3]).root == query[4]


def test_generated_tables_are_probability_families_with_a_geometric_pair():
    t = gen.cli_table(3)
    for n in (1, 2, t["members"]):
        assert sum(m for _, m in gen.table_member(t, n)) == 1
    u_masses = [dict(gen.table_member(t, n))[t["u"]] for n in range(1, 6)]
    diffs = [b - a for a, b in zip(u_masses, u_masses[1:])]
    assert len({b / a for a, b in zip(diffs, diffs[1:])}) == 1


# -- oracles ---------------------------------------------------------------


def test_the_two_event_oracles_agree():
    r = gen.rng("oracle-agreement")
    for n in (1, 2, 5, 9):
        for _ in range(15):
            ast = gen.random_event(r, n)
            p = r.choice(gen.P_VALUES)
            assert oracles.brute_force_probability(n, p, ast) == \
                oracles.conditioned_probability(n, p, ast)


def test_scan_oracle_catches_a_wrong_probability_and_a_wrong_z_law():
    event = next(q for q in gen.scan_round(1, 0) if q[0] == "event" and q[1] == 15)
    right = lg.event_probability(event[1], event[2], event[3])
    expected = oracles.scan_expected(event)
    assert oracles.check_scan(event, right, expected) is None
    assert oracles.check_scan(event, right + Fraction(1, 2**15), expected) is not None

    z = ("z", 9, Fraction(1, 3))
    law = lg.z_distribution(9, Fraction(1, 3))
    assert oracles.check_scan(z, law, oracles.scan_expected(z)) is None
    shifted = lg.from_mass_pairs([(x.value + (x.value == 1), m) for x, m in law.atoms])
    assert oracles.check_scan(z, shifted, oracles.scan_expected(z)) is not None


def test_builtin_oracle_catches_a_wrong_order_b_value():
    state, _ = workloads.BuiltinLimits().setup(0)
    wl = workloads.BuiltinLimits()
    query, args = next(pair for pair in wl.prepare(state, 0, 0)
                       if pair[0][:2] == ("order_b", "mu") and pair[0][3][0] == "affine")
    answer = wl.execute(state, args)
    assert wl.check(state, query, answer) is None
    wrong = dataclasses.replace(answer, value=answer.value + Fraction(1, 2**40))
    assert wl.check(state, query, wrong) is not None


def test_cli_oracle_catches_a_changed_byte_of_stdout():
    golden = oracles.load_golden()
    argv = ("converge", "branches", "--family", "lambda", "--xs", "n-1")
    code, out, _, _ = workloads.run_child(
        [sys.executable, "-m", "limitgap.cli", *argv], workloads.cli_env())
    assert oracles.check_cli(argv, (code, oracles.digest(out)), golden) is None
    assert oracles.check_cli(argv, (code, oracles.digest(out + b" ")), golden) is not None
    assert oracles.check_cli(argv + ("--format", "csv"), (code, oracles.digest(out)), golden) \
        is not None


def test_every_cli_command_has_a_golden_digest():
    golden = oracles.load_golden()
    assert sorted(golden) == sorted(oracles.argv_key(a) for a in gen.cli_domain())


# -- load and resources ----------------------------------------------------


def test_peak_rss_is_taken_per_child():
    env = workloads.cli_env()
    _, _, _, big = workloads.run_child(
        [sys.executable, "-c", "b = bytearray(96 * 2**20); b[::4096] = b'x' * len(b[::4096])"], env)
    _, _, _, small = workloads.run_child([sys.executable, "-c", "pass"], env)
    assert big > 96 > small
    assert run.peak_rss_mb({"child_rss": [small, big, small]}) == big


def test_cli_children_run_one_at_a_time(monkeypatch):
    live_at_start: list[int] = []
    pids: list[int] = []
    real_popen = subprocess.Popen

    def spy(*args, **kwargs):
        live = 0
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
                live += 1
            except ChildProcessError:  # already reaped
                pass
        live_at_start.append(live)
        proc = real_popen(*args, **kwargs)
        pids.append(proc.pid)
        return proc

    monkeypatch.setattr(workloads.subprocess, "Popen", spy)
    wl = workloads.Cli()
    state = {"env": workloads.cli_env(), "child_rss": [], "in_process": False}
    for argv in (("measure", "show", "--family", "mu", "--n", "3"),
                 ("converge", "branches", "--family", "lambda", "--xs", "n-1")):
        wl.execute(state, argv)
    assert live_at_start == [0, 0]


def test_no_worker_pool_and_no_workers_above_one():
    for argv in gen.cli_domain():
        assert "--workers" not in argv
    for path in HERE.glob("*.py"):
        if path.name != "test_perfbench.py":
            text = path.read_text()
            for needle in ("multiprocessing", "ThreadPoolExecutor", "ProcessPoolExecutor",
                           "--workers"):
                assert needle not in text, (path.name, needle)
    # every library call keeps the default workers=1
    assert "workers" not in (HERE / "workloads.py").read_text()


# -- tracing ---------------------------------------------------------------


def _traced_counts(wl, state, prepared):
    tracer = Tracer()
    with tracer:
        run.run_pass(wl, state, prepared, tracer)
    stats = tracer.layer_stats()
    return dict(tracer.counts), {k: v for k, v in stats.items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly_and_match_known_values():
    wl = workloads.Scan()
    state, _ = wl.setup(0)
    prepared = [p for p in wl.prepare(state, 0, 0) if p[0][1] <= 12]
    first = _traced_counts(wl, state, prepared)
    assert first == _traced_counts(wl, state, prepared)
    events = [q for q, _ in prepared if q[0] == "event"]
    assert first[0]["event_dsl.predicate_evals"] == sum(2 ** q[1] for q in events)


def test_order_b_on_a_builtin_family_requests_one_member_per_index():
    wl = workloads.BuiltinLimits()
    state, _ = wl.setup(0)
    fam = state["families"]["mu"]
    sets = state["lg"].lower_ray_family(state["lg"].parse_sequence_spec("n-1"))
    counts, _ = _traced_counts(wl, state, [(("order_b", "mu", 64, None), ("order_b", fam, 64, sets))])
    assert counts["convergence_lab.member_requests"] == 64
    assert counts["convergence_lab.reports"] == 1


def test_uninstall_restores_every_original():
    lg = sys.modules["limitgap"]  # the tracer wraps the generation imported last
    finite, member = lg.finite, lg.MeasureFamily.member
    post_init = lg.DiscreteMeasure.__dict__["__post_init__"]
    from_pieces = lg.MeasurableSet.__dict__["from_pieces"]
    with Tracer():
        assert lg.finite is not finite
        assert lg.measure_core.finite is lg.finite is lg.convergence_lab.finite
    assert lg.finite is finite and lg.convergence_lab.finite is finite
    assert lg.MeasureFamily.member is member
    assert lg.DiscreteMeasure.__dict__["__post_init__"] is post_init
    assert lg.MeasurableSet.__dict__["from_pieces"] is from_pieces


# -- reporting -------------------------------------------------------------


def test_each_query_is_timed_at_its_class_median():
    labels = ["a"] * 10 + ["b"] * 20
    lat = [float(x) for x in range(10, 0, -1)] + [100.0 + x for x in range(20)]
    groups, best = run.class_times(labels, lat)
    assert len(groups["a"]) == 10 and len(groups["b"]) == 20
    assert best == {"a": 5.0, "b": 109.0}


def test_host_clock_scales_by_the_calibrations_around_a_call():
    clock = run.HostClock()
    k = run.CAL_NEIGHBOURS
    clock.marks = [float(i) for i in range(1, 2 * k + 3)]
    clock.times = [run.CAL_REF_S * x for x in [1] * k + [2] * k + [9, 9]]
    # k before (all 1) and k after (all 2) a call begun between them
    assert clock.scale(k + 0.5) == 1 / 1.5
    # at the start only the calibrations after it count
    assert clock.scale(0.5) == 1.0


def test_rounds_have_a_seed_independent_cost_mix():
    def mix(round_, key):
        return sorted(key(q) for q in round_)

    builtin = workloads.BuiltinLimits()
    cli = workloads.Cli()
    assert mix(gen.builtin_round(1, 0), builtin.label) == mix(gen.builtin_round(2, 5), builtin.label)
    assert mix(gen.cli_round(1, 0), cli.label) == mix(gen.cli_round(2, 5), cli.label)


def test_nearest_rank_percentile():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.0
    assert run.percentile([5.0], 95) == 5.0


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # scan runs by hand but is not gated (see README, Noise)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"scan"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == per_layer_metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.per_layer_unit(name) for name in per_layer_metric_names()}
