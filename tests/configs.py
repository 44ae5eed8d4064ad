"""Synthetic testbed configurations shared across the test modules.

Each entry pins latent/embedding dimensions and the planted-mode layout
for one scenario; tests reference them by name so the geometry behind a
tolerance is written down exactly once.
"""

# Sharp point mass of 1% in a 128-dim embedding over a near-uniform
# background: the regime where one identity dominates its neighborhood.
DETECTION = dict(
    latent_dim=8,
    embed_dim=128,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.01, "spread": 0.0}],
    },
)

# Tight 128-dim background: most anchor x pool dots land near the theta
# and radius cutoffs, so every chunk's GEMM feeds both counts and sums.
NEAR_CUTOFFS = dict(
    latent_dim=8,
    embed_dim=128,
    parameters={
        "background": [{"weight": 1.0, "spread": 0.08}],
        "planted": [{"mass": 0.01, "spread": 0.0}],
    },
)

# Moderate 5% mode plus a tight background cap so random anchors carry
# a nonzero score whose estimate must stabilize with pool size.
EFFICIENCY = dict(
    latent_dim=8,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 0.2}],
        "planted": [{"mass": 0.05, "spread": 0.0}],
    },
)

# 5% mode with intra-mode variation: winners differ across anchor-set
# sizes but must keep pointing at the same region.
CONSISTENCY = dict(
    latent_dim=8,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.05, "spread": 0.05}],
    },
)

# 2-dim latent so the mixture's clusters resolve the planted ball, which
# sits away from the origin where its Gaussian mass is easy to reweight.
GMM_CALIBRATION = dict(
    latent_dim=2,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.01, "spread": 0.0, "latent_norm": 3.0}],
    },
)

# Dense 5% mode at the latent origin (near-uniform ball density, so a
# 100-vertex hull covers most of it) plus a 2% mode serving as the
# off-mode reference whose density the calibration must match.
IS_CALIBRATION = dict(
    latent_dim=2,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [
            {"mass": 0.05, "spread": 0.0, "latent_norm": 0.0},
            {"mass": 0.02, "spread": 0.0, "latent_norm": 2.2},
        ],
    },
)


def spec_dict(config: dict, seed: int) -> dict:
    """JSON-ready source spec for one of the configurations above."""
    return {
        "kind": "synthetic",
        "latent_dim": config["latent_dim"],
        "embed_dim": config["embed_dim"],
        "seed": seed,
        "parameters": config["parameters"],
    }
