"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each traced function with a wrapper in every
`polyame` module that holds it (so `from .gf import rank` bindings are caught
too). A wrapper records one span per call: its duration and its self time,
which is the duration minus the spans that ran inside it. Spans are kept
only while `phase` is set ("setup" or "solve"), as aggregated
(phase, name) -> [calls, seconds, self seconds] totals plus named counters;
per-cut calls are far too many to keep one record each.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def rebind(owner, attr, wrapper_of) -> list[tuple[object, str, object]]:
    """Replace owner.attr, and every polyame module binding of the same
    object, by wrapper_of(original); returns what restores them."""
    original = getattr(owner, attr)
    wrapped = wrapper_of(original)
    targets = [(owner, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("polyame") and mod is not owner:
            targets.extend((mod, key) for key, val in vars(mod).items() if val is original)
    undo = [(obj, key, getattr(obj, key)) for obj, key in targets]
    for obj, key in targets:
        setattr(obj, key, wrapped)
    return undo


def restore(undo) -> None:
    for obj, key, val in reversed(undo):
        setattr(obj, key, val)


class Tracer:
    def __init__(self):
        self.phase = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, names, t0, frame) -> None:
        dur = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        for i, name in enumerate(names):
            s = self.stats[(self.phase, name)]
            s[0] += 1
            s[1] += dur
            if i == 0:
                s[2] += dur - frame[0]

    def wrap(self, fn, names_of):
        """Wrapper recording a span under names_of(args, kwargs) (first name
        gets the self time; the rest are extra aggregation keys)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            names = names_of(args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(names, t0, frame)

        return wrapper

    def wrap_generator(self, fn, name, count_items=None):
        """Wrapper for a generator function: one span per item produced,
        so the consumer's work between items is not charged to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if self.phase is None:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = [0.0]
                self._stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._close((name,), t0, frame)
                    return
                self._close((name,), t0, frame)
                if count_items is not None:
                    self.counters[(self.phase, name + ".items")] += count_items(item)
                yield item

        return wrapper

    def patch(self, owner, attr, wrapper_of) -> None:
        self._undo.extend(rebind(owner, attr, wrapper_of))

    def restore(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def install(self) -> None:
        """Wrap the public functions of each layer of the package."""
        # import_module: the package re-exports a function named `entropy`,
        # which shadows the submodule as a package attribute.
        cli, codes, contraction, entropy, gf, reports, stateio, states = (
            importlib.import_module("polyame." + m)
            for m in ("cli", "codes", "contraction", "entropy", "gf", "reports", "stateio", "states")
        )

        def fixed(name):
            return lambda args, kwargs: (name,)

        def span(owner, attr, name):
            self.patch(owner, attr, lambda f: self.wrap(f, fixed(name)))

        span(contraction, "build_d1", "contraction.build_d1")
        span(contraction, "build_hovering", "contraction.build_hovering")
        span(stateio, "write_state", "stateio.write_state")
        span(stateio, "read_state", "stateio.read_state")
        span(states.StateVector, "check_normalized", "states.check_normalized")
        span(entropy, "sample_partitions", "entropy.partitions.sample")
        span(entropy, "structured_partitions", "entropy.partitions.structured")
        span(entropy, "entropy_sweep", "entropy.entropy_sweep")
        span(codes, "from_parity_checks", "codes.from_parity_checks")
        span(codes, "rs_code_state", "codes.rs_code_state")
        span(codes, "code_entropy", "codes.code_entropy")
        span(codes, "min_hamming_distance", "codes.min_hamming_distance")
        span(gf, "is_prime", "gf.is_prime")
        self.patch(
            gf, "rank",
            lambda f: self.wrap(
                f, lambda a, k: ("gf.rank.p2" if a[0].p == 2 else "gf.rank.odd",)
            ),
        )
        self.patch(
            entropy, "exhaustive_partitions",
            lambda f: self.wrap_generator(f, "entropy.partitions.exhaustive"),
        )
        self.patch(
            codes, "codeword_blocks",
            lambda f: self.wrap_generator(f, "codes.codeword_blocks", len),
        )
        self.patch(
            reports, "reproduce",
            lambda f: self.wrap(f, lambda a, k: ("reports.reproduce." + a[0],)),
        )

        def entropy_names(args, kwargs):
            sv, bp = args[0], args[1]
            small = min(bp.m, sv.n - bp.m)
            # mat (d^s x d^(n-s)) times its transpose: 2 d^(2s) d^(n-s) flops.
            self.counters[(self.phase, "entropy.gram.flop")] += (
                2.0 * sv.d ** (2 * small) * sv.d ** (sv.n - small)
            )
            if sv.n == 20:
                return ("entropy.entropy", f"entropy.entropy.m{bp.m}")
            return ("entropy.entropy",)

        self.patch(entropy, "entropy", lambda f: self.wrap(f, entropy_names))

        def ame_names(args, kwargs):
            cs = args[0]
            self.counters[(self.phase, "codes.is_ame_code.cuts")] += comb(cs.n, cs.n // 2)
            return ("codes.is_ame_code",)

        self.patch(codes, "is_ame_code", lambda f: self.wrap(f, ame_names))
        self.patch(
            cli.analyze, "callback", lambda f: self.wrap(f, fixed("cli.analyze"))
        )

    def layer_metrics(self, setup_reps: int, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: set-up layers per set-up repetition, all
        others per solve round. Layers a workload never calls read 0."""

        def tot(name, phase="solve"):
            return self.stats[(phase, name)][1]

        def calls(name, phase="solve"):
            return self.stats[(phase, name)][0]

        def self_s(name):
            return self.stats[("solve", name)][2]

        def ratio(a, b):
            return a / b if b else 0.0

        def per_setup(name):
            return tot(name, "setup") / setup_reps

        def per_round(x):
            return x / rounds

        ent_calls = calls("entropy.entropy")
        ent_s = tot("entropy.entropy")
        rank_calls = calls("gf.rank.p2") + calls("gf.rank.odd")
        items = self.counters[("solve", "codes.codeword_blocks.items")]
        out = {
            "contraction.build_d1.s": (per_setup("contraction.build_d1"), "s"),
            "contraction.build_hovering.s": (per_round(tot("contraction.build_hovering")), "s"),
            "stateio.write_state.s": (per_setup("stateio.write_state"), "s"),
            "stateio.read_state.s": (per_setup("stateio.read_state"), "s"),
            "states.check_normalized.calls": (per_round(calls("states.check_normalized")), "count"),
            "states.check_normalized.s": (per_round(tot("states.check_normalized")), "s"),
            "entropy.entropy.calls": (per_round(ent_calls), "count"),
            "entropy.entropy.s": (per_round(ent_s), "s"),
        }
        for m in range(1, 11):
            name = f"entropy.entropy.m{m}"
            out[f"entropy.entropy.ms_per_call.m{m}"] = (1e3 * ratio(tot(name), calls(name)), "ms")
        out.update({
            "entropy.gram.gflop_per_s": (
                1e-9 * ratio(self.counters[("solve", "entropy.gram.flop")], ent_s), "GFLOP/s"
            ),
            "entropy.partitions.s": (
                per_round(sum(tot("entropy.partitions." + k)
                              for k in ("sample", "structured", "exhaustive"))), "s"
            ),
            "entropy.entropy_sweep.self_s": (per_round(self_s("entropy.entropy_sweep")), "s"),
            "cli.analyze.self_s": (per_round(self_s("cli.analyze")), "s"),
            "reports.reproduce.hovering.s": (per_round(tot("reports.reproduce.hovering")), "s"),
            "reports.reproduce.rs12_11.s": (per_round(tot("reports.reproduce.rs12_11")), "s"),
            "codes.from_parity_checks.s": (per_setup("codes.from_parity_checks"), "s"),
            "codes.rs_code_state.s": (per_setup("codes.rs_code_state"), "s"),
            "codes.code_entropy.calls": (per_round(calls("codes.code_entropy")), "count"),
            "codes.code_entropy.us_per_call": (
                1e6 * ratio(tot("codes.code_entropy"), calls("codes.code_entropy")), "us"
            ),
            "codes.is_ame_code.s": (per_round(tot("codes.is_ame_code")), "s"),
            "codes.is_ame_code.cuts_per_s": (
                ratio(self.counters[("solve", "codes.is_ame_code.cuts")], tot("codes.is_ame_code")),
                "1/s",
            ),
            "codes.codeword_blocks.words_per_s": (ratio(items, tot("codes.codeword_blocks")), "1/s"),
            "codes.min_hamming_distance.s": (per_round(tot("codes.min_hamming_distance")), "s"),
            "gf.rank.calls.p2": (per_round(calls("gf.rank.p2")), "count"),
            "gf.rank.us_per_call.p2": (1e6 * ratio(tot("gf.rank.p2"), calls("gf.rank.p2")), "us"),
            "gf.rank.calls.odd": (per_round(calls("gf.rank.odd")), "count"),
            "gf.rank.us_per_call.odd": (1e6 * ratio(tot("gf.rank.odd"), calls("gf.rank.odd")), "us"),
            "gf.is_prime.calls_per_rank": (ratio(calls("gf.is_prime"), rank_calls), "ratio"),
        })
        return out

    def dump(self) -> list[dict]:
        """Every aggregated span, for the trace file."""
        return [
            {"phase": phase, "name": name, "calls": c, "s": t, "self_s": st}
            for (phase, name), (c, t, st) in sorted(self.stats.items())
        ] + [
            {"phase": phase, "counter": name, "value": v}
            for (phase, name), v in sorted(self.counters.items())
        ]
