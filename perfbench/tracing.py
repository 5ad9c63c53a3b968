"""Spans and counters around the program's public functions, from outside it.

`Tracer.install()` replaces each traced function by a wrapper under every
name it is looked up by: a module global in any loaded opuckit module (so
`opuckit.measures.log_phistar_abs` is caught as well as
`opuckit._kernels.log_phistar_abs`) or a class attribute.  A wrapper records
a span (duration and the time its child spans cover) and the counts of its
function.  Only calls made inside an `op()` span are recorded, so the
benchmark's own input building and checks never count.  `uninstall()` puts
the original objects back.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer name, module, attribute path) of every traced function.
SPANS = (
    ("kernels.log_phistar_abs", "opuckit._kernels", "log_phistar_abs"),
    ("measures.szego_functional", "opuckit.measures", "szego_functional"),
    ("measures.bernstein_szego_weight", "opuckit.measures", "bernstein_szego_weight"),
    ("measures.trig_moments", "opuckit.measures", "trig_moments"),
    ("sum_rule.log_tail", "opuckit.sum_rule", "log_tail"),
    ("sum_rule.decomposition_report", "opuckit.sum_rule", "decomposition_report"),
    ("sequences.lukic_partial_sums", "opuckit.sequences", "lukic_partial_sums"),
    ("sequences.lp_norm", "opuckit.sequences", "lp_norm"),
    ("sequences.VerblunskySequence", "opuckit.sequences", "VerblunskySequence.__post_init__"),
    ("families.generate", "opuckit.families", "FamilySpec.generate"),
    ("cli", "opuckit.cli", "main"),
    ("psd_quartic.gram_closed_form", "opuckit.psd_quartic", "gram_closed_form"),
    ("psd_quartic.psd_certificate", "opuckit.psd_quartic", "psd_certificate"),
    ("psd_quartic.gram_identity_check", "opuckit.psd_quartic", "gram_identity_check"),
    ("psd_quartic.pm_polynomial", "opuckit.psd_quartic", "pm_polynomial"),
    ("shift_algebra.ideal_power_decompose", "opuckit.shift_algebra", "ideal_power_decompose"),
    ("shift_algebra.coefficient_map", "opuckit.shift_algebra", "coefficient_map"),
    ("normal_form.from_ideal_expansion", "opuckit.normal_form", "from_ideal_expansion"),
    ("normal_form.pointwise_equality_check", "opuckit.normal_form", "pointwise_equality_check"),
    ("normal_form.evaluate", "opuckit.normal_form", "evaluate"),
    ("absorption.monomial_sum", "opuckit.absorption", "monomial_sum"),
    ("absorption.gn_ratio_probe", "opuckit.absorption", "gn_ratio_probe"),
    ("absorption.fit_absorption_constant", "opuckit.absorption", "fit_absorption_constant"),
    ("absorption.absorption_inequality_probe", "opuckit.absorption", "absorption_inequality_probe"),
)

# Repeat ratios: calls divided by distinct inputs, keyed by these functions.
REPEAT_KEYS = {
    "kernels.log_phistar_abs": lambda alphas, z: (
        hashlib.blake2b(np.ascontiguousarray(alphas, dtype=np.complex128).tobytes()).digest(),
        len(z),
    ),
    # the sum over [0, N] reads entries up to N + the monomial's overhang
    "absorption.monomial_sum": lambda mono, seq, N: (
        mono,
        N,
        tuple(seq.values[: N + 1 + max(a + abs(s) for a, s in mono.holo_factors + mono.anti_factors)]),
    ),
}

# Extra counts, from the arguments and result of one call.
WORK_COUNTS = {
    "kernels.log_phistar_abs": ("node_steps", lambda args, result: len(args[0]) * len(args[1])),
    "sequences.VerblunskySequence": ("entries", lambda args, result: len(args[0].values)),
    "shift_algebra.ideal_power_decompose": ("terms", lambda args, result: len(result.terms)),
}

# Constructors counted without a span: (count name, module, class, method).
CREATION_COUNTS = (
    ("fractions.Fraction.created", "fractions", "Fraction", "__new__"),
    ("rationals.GaussianRational.created", "opuckit.rationals", "GaussianRational", "__init__"),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.distinct_total = defaultdict(int)
        self._stack = []  # time covered by child spans, one entry per open span
        self._restore = []  # (owner, attribute, original object)

    # -- spans -----------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        self.self_s[name] += dt - self._stack.pop()
        if self._stack:
            self._stack[-1] += dt

    @contextmanager
    def op(self):
        """The benchmark's own span around one timed op."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit("bench", t0)

    def end_round(self):
        """Close the distinct-input sets, so repeat ratios count repeats within a round."""
        for name, keys in self.distinct.items():
            self.distinct_total[name] += len(keys)
            keys.clear()

    def _wrap(self, name, fn):
        tracer = self
        key_of = REPEAT_KEYS.get(name)
        work = WORK_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if key_of is not None:
                tracer.distinct[name].add(key_of(*args, **kwargs))
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, t0)
            if work is not None:
                tracer.counts[f"{name}.{work[0]}"] += work[1](args, result)
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._stack:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "opuckit" or n.startswith("opuckit.")]
        for name, module, path in SPANS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)
        for name, module, clsname, attr in CREATION_COUNTS:
            cls = getattr(sys.modules[module], clsname)
            original = getattr(cls, attr)
            counted = self._count(name, original)
            self._patch(cls, attr, staticmethod(counted) if attr == "__new__" else counted)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# The per-layer metrics a traced run prints, in BENCHMARK.json's order, with units.
PER_LAYER = (
    ("kernels.log_phistar_abs.calls", "count"),
    ("kernels.log_phistar_abs.self_s", "s"),
    ("kernels.log_phistar_abs.node_steps", "count"),
    ("kernels.log_phistar_abs.repeat_ratio", "ratio"),
    ("measures.szego_functional.self_s", "s"),
    ("measures.bernstein_szego_weight.self_s", "s"),
    ("measures.trig_moments.self_s", "s"),
    ("sum_rule.log_tail.calls", "count"),
    ("sum_rule.log_tail.self_s", "s"),
    ("sum_rule.decomposition_report.calls", "count"),
    ("sum_rule.decomposition_report.self_s", "s"),
    ("sequences.lukic_partial_sums.calls", "count"),
    ("sequences.lukic_partial_sums.self_s", "s"),
    ("sequences.lp_norm.self_s", "s"),
    ("sequences.VerblunskySequence.entries", "count"),
    ("sequences.VerblunskySequence.self_s", "s"),
    ("families.generate.calls", "count"),
    ("families.generate.self_s", "s"),
    ("cli.self_s", "s"),
    ("psd_quartic.gram_closed_form.calls", "count"),
    ("psd_quartic.gram_closed_form.self_s", "s"),
    ("psd_quartic.psd_certificate.self_s", "s"),
    ("psd_quartic.gram_identity_check.self_s", "s"),
    ("psd_quartic.pm_polynomial.self_s", "s"),
    ("fractions.Fraction.created", "count"),
    ("rationals.GaussianRational.created", "count"),
    ("shift_algebra.ideal_power_decompose.calls", "count"),
    ("shift_algebra.ideal_power_decompose.self_s", "s"),
    ("shift_algebra.ideal_power_decompose.terms", "count"),
    ("shift_algebra.coefficient_map.self_s", "s"),
    ("normal_form.from_ideal_expansion.self_s", "s"),
    ("normal_form.pointwise_equality_check.self_s", "s"),
    ("normal_form.evaluate.calls", "count"),
    ("normal_form.evaluate.self_s", "s"),
    ("absorption.monomial_sum.calls", "count"),
    ("absorption.monomial_sum.self_s", "s"),
    ("absorption.monomial_sum.repeat_ratio", "ratio"),
    ("absorption.gn_ratio_probe.self_s", "s"),
    ("absorption.fit_absorption_constant.self_s", "s"),
    ("absorption.absorption_inequality_probe.self_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("setup.opuckit_import_s", "s"),
    ("trace.run_s", "s"),
    ("trace.layers_self_s", "s"),
    ("trace.bench_self_s", "s"),
)
