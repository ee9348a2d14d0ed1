"""Separable cosparse analysis operator learning and volumetric reconstruction.

Subpackages follow the pipeline: dense tensor algebra (`tensor`), oblique
manifold geometry (`manifold`), the learning cost and its gradients
(`objective`), the conjugate gradient solver both problems share (`cg`),
operator learning (`learn`), volumetric data handling (`volume`), and
inverse-problem reconstruction plus quality metrics (`reconstruct`).
"""

from sepop.manifold import DegenerateStepError
from sepop.objective import BarrierError, LearningParams
from sepop.learn import SolverConfig, LearnReport, learn_operators
from sepop.volume import Volume, TrainingSet
from sepop.reconstruct import ReconConfig, psnr, mssim

__all__ = [
    "BarrierError",
    "DegenerateStepError",
    "LearnReport",
    "LearningParams",
    "ReconConfig",
    "SolverConfig",
    "TrainingSet",
    "Volume",
    "learn_operators",
    "mssim",
    "psnr",
]
