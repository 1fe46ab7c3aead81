"""The workloads: set-up, rounds of queries, execution and checking.

Each workload is a closed loop with one client: the next query is issued
when the previous answer is back, because a user of an exact calculator
waits for each answer.  `prepare` turns a generated round into library
objects outside the timed region; `execute` is the timed call; `check`
judges the answer with an oracle from `oracles.py` after the loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh_import():
    """Import limitgap from scratch, as a new process would (bytecode is warm)."""
    for mod in [m for m in sys.modules if m == "limitgap" or m.startswith("limitgap.")]:
        del sys.modules[mod]
    return importlib.import_module("limitgap")


class Workload:
    name = ""
    trace_rounds = 1
    # The tail percentile, fixed so that every commit is read at the same
    # level: one that keeps >= 10 samples beyond it in a run at the seed
    # commit, even when the host is slow, and that falls inside a cost class
    # of the round rather than on an edge between two.
    tail_level = 95.0

    def setup(self, seed: int) -> tuple[dict, object]:
        """The loaded state and a callable that repeats the set-up for timing.

        Set-up is everything before the first query: importing limitgap and
        loading the workload's inputs into library objects.
        """
        raise NotImplementedError

    def prepare(self, state: dict, seed: int, index: int) -> list[tuple]:
        """(query, call arguments) pairs of round `index`."""
        raise NotImplementedError

    def execute(self, state: dict, args: tuple):
        raise NotImplementedError

    def check(self, state: dict, query: tuple, answer) -> str | None:
        raise NotImplementedError

    def settle(self, answer):
        """Turn a raw answer into the form `check` takes, outside the timing."""
        return answer

    def label(self, query: tuple) -> str:
        return str(query[0])


class Scan(Workload):
    name = "scan"
    trace_rounds = 6

    def setup(self, seed):
        def load():
            return {"lg": fresh_import(), "memo": {}}
        return load(), load

    def prepare(self, state, seed, index):
        return [(q, q) for q in gen.scan_round(seed, index)]

    def execute(self, state, q):
        lg = state["lg"]
        if q[0] == "event":
            return lg.event_probability(q[1], q[2], q[3])
        return lg.z_distribution(q[1], q[2])

    def check(self, state, query, answer):
        key = query[:4]
        if key not in state["memo"]:
            state["memo"][key] = oracles.scan_expected(query)
        return oracles.check_scan(query, answer, state["memo"][key])

    def label(self, query):
        return f"{query[0]} n={query[1]}"


class BuiltinLimits(Workload):
    name = "builtin-limits"
    # The costlier integral class of mu at H = 128 fills ranks 113..114 of
    # every 120; p94.5 reads its middle, not the edge that p95 would.
    tail_level = 94.5

    def setup(self, seed):
        def load():
            lg = fresh_import()
            return {"lg": lg, "families": {f: lg.builtin_family(f) for f in gen.BUILTIN_FAMILIES}}
        return load(), load

    def prepare(self, state, seed, index):
        lg = state["lg"]
        test_fns = {
            "atan": lambda x: math.atan(lg.extended_line.saturating_float(x)),
            "h": lambda x: lg.h(x).value,
        }
        prepared = []
        for q in gen.builtin_round(seed, index):
            function, family, horizon, arg = q
            if function in ("order_a", "order_b"):
                kind, value = arg
                if kind == "point":
                    sets = lg.singleton_family(lg.POS_INF)
                else:
                    sets = lg.lower_ray_family(lg.parse_sequence_spec(gen.seq_text(kind, value)))
                arg = sets
            elif function == "branch":
                arg = gen.seq_text(*arg)
            elif function == "integral":
                arg = test_fns[arg]
            prepared.append((q, (function, state["families"][family], horizon, arg)))
        return prepared

    def execute(self, state, args):
        lg = state["lg"]
        function, fam, horizon, arg = args
        if function == "order_a":
            return lg.order_a_limit(fam, arg, horizon)
        if function == "order_b":
            return lg.order_b_limit(fam, arg, horizon)
        if function == "branch":
            return lg.branch_check(fam, arg, horizon)
        if function == "tightness":
            return lg.tightness_probe(fam, arg, horizon)
        if function == "weak":
            return lg.weak_limit_identify(fam, horizon)
        return lg.integral_limit(fam, arg, horizon)

    def check(self, state, query, answer):
        return oracles.check_builtin(query, answer)

    def label(self, query):
        test_fn = f" {query[3]}" if query[0] == "integral" else ""
        return f"{query[0]} {query[1]} H={query[2]}{test_fn}"


class _DigestSink:
    """A stdout stand-in that keeps only the sha256 and the byte count."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall seconds, peak RSS in MB).

    The peak RSS is this child's own, read from os.wait4, so one large child
    is not hidden among many small ones.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024


def cli_env() -> dict:
    """Environment for CLI children; also writes the `@table.json` inputs."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for variant in range(gen.CLI_TABLE_VARIANTS):
        (ROOT / gen.cli_table_path(variant)).write_text(gen.table_json(gen.cli_table(variant)))
    return dict(os.environ, PYTHONPATH=str(SRC))


class Cli(Workload):
    name = "cli"
    tail_level = 85.0

    def setup(self, seed):
        env = cli_env()
        state = {"env": env, "golden": oracles.load_golden(), "child_rss": [],
                 "in_process": False}

        def load():
            code, _, _, _ = run_child([sys.executable, "-c", "import limitgap.cli"], env)
            if code != 0:
                raise RuntimeError("limitgap.cli does not import")
        load()
        return state, load

    def prepare(self, state, seed, index):
        return [(argv, argv) for argv in gen.cli_round(seed, index)]

    def execute(self, state, argv):
        if state["in_process"]:
            cli = sys.modules["limitgap.cli"]
            sink = _DigestSink()
            with contextlib.redirect_stdout(sink):
                code = cli.main(list(argv))
            state["stdout_bytes"] = state.get("stdout_bytes", 0) + sink.bytes
            return code, sink.hash.hexdigest()
        code, out, _, rss = run_child(
            [sys.executable, "-m", "limitgap.cli", *argv], state["env"])
        state["child_rss"].append(rss)
        return code, out

    def settle(self, answer):
        code, out = answer
        return (code, out) if isinstance(out, str) else (code, oracles.digest(out))

    def check(self, state, query, answer):
        return oracles.check_cli(query, answer, state["golden"])

    def label(self, query):
        # The two orders of `converge limit`, and `converge branches` on mu
        # and on the other families, differ in cost; every other subcommand
        # costs about the same whatever its arguments.
        if query[:2] == ("converge", "limit"):
            return f"converge limit --order {query[7]}"
        if query[:2] == ("converge", "branches"):
            return f"converge branches{' mu' if query[3] == 'mu' else ''}"
        return " ".join(query[:2])


WORKLOADS = {w.name: w for w in (Scan(), BuiltinLimits(), Cli())}
