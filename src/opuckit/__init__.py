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
