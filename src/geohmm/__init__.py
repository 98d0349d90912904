"""Hidden Markov models with geometrically consistent odometric relations."""

from .circstats import KAPPA_MAX, bessel_ratio, resultant_to_kappa, wrap_angle
from .estimation import (LearnConfig, LearnReport, em_learn, project_headings,
                         solve_positions, update_observations,
                         update_relations_additive, update_relations_antisym,
                         update_transitions)
from .evalkl import KlEstimate, kl_sampled
from .inference import (Posteriors, Trellis, forward_backward, loglik,
                        posteriors)
from .initialization import (BucketConfig, bucketize, init_model,
                             perturb_model, random_model, tag_states)
from .io import load_experience, load_model, save_experience, save_model
from .model import (VAR_FLOOR, ConsistencyReport, ConstraintLevel,
                    CoordinateMode, ExperienceSequence, GeoHmm, GeoHmmError,
                    ImpossibleSequenceError, ModelFormatError, RelationMatrix,
                    check_consistency, embed_relations)
from .pipeline import (RunResult, best_index, best_run, default_bucket_config,
                       learn_runs)
from .render import embed_model_positions, render_svg
from .simgen import LoopSpec, make_loop_model, sample_path, sample_sequence

__version__ = "0.1.0"

__all__ = [
    "KAPPA_MAX", "VAR_FLOOR", "BucketConfig", "ConsistencyReport",
    "ConstraintLevel", "CoordinateMode", "ExperienceSequence", "GeoHmm",
    "GeoHmmError", "ImpossibleSequenceError", "KlEstimate", "LearnConfig",
    "LearnReport", "LoopSpec", "ModelFormatError", "Posteriors",
    "RelationMatrix", "RunResult", "Trellis", "bessel_ratio",
    "best_index", "best_run", "bucketize", "check_consistency",
    "default_bucket_config", "em_learn", "embed_model_positions",
    "embed_relations", "forward_backward", "init_model", "kl_sampled",
    "learn_runs", "load_experience", "load_model", "loglik",
    "make_loop_model", "perturb_model", "posteriors", "project_headings",
    "random_model", "render_svg", "resultant_to_kappa", "sample_path",
    "sample_sequence", "save_experience", "save_model", "solve_positions",
    "tag_states", "update_observations", "update_relations_additive",
    "update_relations_antisym", "update_transitions", "wrap_angle",
]
