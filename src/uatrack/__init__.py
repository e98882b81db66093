"""Uncertainty-aware tracking-by-association with tracklet-guided
augmentation and contrastive embedding training, validated against a
deterministic synthetic-scene simulator."""

from .assignment import Matching, brute_force_max, hungarian_max
from .augment import (AugmentationPlan, SamplingWeights, augment_detections,
                      build_plan, sample, source_anchor_weights,
                      target_anchor_weights)
from .contrastive import (ContrastiveBatch, LinearEmbedder, TrainConfig,
                          info_nce, info_nce_batch, info_nce_grad,
                          train_embedder)
from .geometry import AffineTransform, BoundingBox, apply_affine, iou, solve_affine
from .metrics import (id_switches, pseudo_accuracy, similarity_delta,
                      uncertainty_separation)
from .simulator import GroundTruthRecord, ScenarioConfig, generate
from .tracker import (Detection, Tracklet, TrackerConfig, TrackerState,
                      build_similarity, rectify, step, track_sequence, verify)
from .uncertainty import (AssociationVerdict, UncertaintyMargins,
                          adaptive_threshold, association_risk,
                          association_uncertainty, second_best,
                          tracklet_uncertainty)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
