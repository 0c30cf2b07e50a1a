"""Evaluators the benchmark checks the program against.

Nothing here imports `poisson_strata`: every value is recomputed from the
defining data written out in these modules (the admissibility conditions, the
bracket table of the Poisson algebra, the defining relations of the quantized
algebra), so a fault in the package cannot hide in the reference.
"""
