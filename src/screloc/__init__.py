"""Scene coordinate regression with latent map codes.

A scene-agnostic cross-attention regressor maps patch embeddings plus a
learnable per-scene map code to 3D scene coordinates and a Laplace scale.
The package holds synthetic worlds with a mapping/query condition shift,
alternating mapping/query pre-training, map-code fitting from 3D-supervised
buffers, and RANSAC PnP on 2D-3D matches. Mapping from posed views and
relocalization from predicted coordinates are not written yet.
"""

__version__ = "0.1.0"
