"""Uncertainty-aware tracking-by-association with tracklet-guided
augmentation and contrastive embedding training, validated against a
deterministic synthetic-scene simulator."""

__version__ = "0.1.0"
