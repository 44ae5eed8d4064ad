"""Black-box generator calibration toolkit.

Diagnoses intra-mode collapse in a generative model through nothing but
samples: a Monte Carlo collapse score per anchor, population statistics
over an anchor collection, and worst-case dense-mode search in an
identity-embedding space.  Two calibration methods then reshape the
latent distribution without touching the model: a reweighted Gaussian
mixture fit to clustered latents, and convex-hull importance sampling
with per-mode acceptance probabilities.
"""

# The one re-export: bench/spans.py wraps every binding of read_store, and
# bench/smoke.py and tests/test_bench_names.py assert that this one is among
# them.  Every other name imports from its own module.
from .store import read_store  # noqa: F401
