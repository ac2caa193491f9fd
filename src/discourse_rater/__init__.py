"""Multimodal ordinal rating of classroom discourse segments.

A text-centered attention fusion model over pre-extracted per-segment feature
sequences (utterance text, 10-second audio and video chunks), trained with an
ordinal log-loss across three rating tasks, plus the full evaluation stack:
quadratic weighted kappa, leave-one-rater-out reliability, teacher-grouped
nested cross-validation, ablations, and student-outcome correlations.
"""

from .data import (Dataset, DatasetManifest, Example, RaterRecord,
                   SegmentFeatures, SegmentRecord, StudentRecord, SynthConfig,
                   classroom_aggregate, generate_synthetic, read_feature_file,
                   uniform_signal, write_feature_file)
from .harness import (FoldPlan, GridPoint, default_grid, make_folds,
                      run_ablation, run_nested_cv)
from .metrics import (EvaluationReport, confusion_matrix, fold_summary,
                      irr_leave_one_rater_out, pearson_r, qwk)
from .model import (FusionModel, ModelConfig, build_model, forward, load_model,
                    save_model)
from .objective import (COMPONENTS, RATINGS, class_weights, index_to_rating,
                        l1_loss, multitask_total, oll_loss, rating_to_index,
                        round_to_rating, weighted_ce_loss)
from .tensor import Tensor, grad_check, no_grad, precision, set_dtype
from .train import AdamW, TrainConfig, TrainHistory, predict, train

__version__ = "0.1.0"
