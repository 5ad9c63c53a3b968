"""opuckit: desk-scale checks for the single-critical-point higher-order
Szego sum-rule calculus on the unit circle.

Layers, bottom up: Verblunsky sequences and the difference calculus
(sequences), measure transforms and the weighted log functional (measures),
exact shift-variable Laurent algebra with diagonal-ideal membership
(shift_algebra), difference normal forms and their pointwise check
(normal_form), the computable sum-rule pieces (sum_rule), the quartic PSD
Gram block (psd_quartic), interpolation exponents and absorption probes
(absorption), the `verify` suites (suites), and the sweep CLI (cli).
"""

__version__ = "0.1.0"
# the numpy kernel is the only one; perfbench/run.py records this in its provenance
KERNEL_BACKEND = "python"

from .absorption import (
    absorption_inequality_probe,
    absorption_probes,
    critical_orders,
    fit_absorption_constant,
    gn_exponent,
    gn_ratio_probe,
)
from .families import FamilySpec
from .measures import (
    MeasureSpec,
    WeightPositivityError,
    bernstein_szego_weight,
    szego_functional,
    szego_functional_series,
    trig_moments,
)
from .normal_form import (
    MembershipError,
    NormalFormMonomial,
    evaluate,
    from_ideal_expansion,
    pointwise_equality_check,
)
from .psd_quartic import (
    GramBlock,
    PsdCertificate,
    gram_closed_form,
    gram_identity_check,
    gram_sos_check,
    multi_indices,
    pm_polynomial,
    psd_certificate,
)
from .rationals import GaussianRational
from .sequences import (
    EnergyReport,
    ModulusError,
    VerblunskySequence,
    lp_norm,
    lukic_partial_sums,
)
from .shift_algebra import (
    IdealDecomposition,
    ShiftPolynomial,
    coefficient_map,
    diag_eval,
    ideal_power_decompose,
    vanishing_order,
)
from .sum_rule import (
    DecompositionReport,
    decomposition_report,
    decomposition_sweep,
    hm_closed_form,
    hm_shift_symbol,
    log_tail,
    log_tails,
)
