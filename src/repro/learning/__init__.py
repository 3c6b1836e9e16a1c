"""DP-detector learning: kernel PCA, Algorithm 1, baselines."""

from .adhoc import AdHocDetector
from .decision_tree import DecisionTreeClassifier
from .detector import DETECTION_METHODS, DetectorRefitCache, DPDetector
from .embedding import FrozenEmbedding
from .kpca import KernelPCA
from .local_predictor import knn_indices, manifold_matrices
from .multitask import MultiTaskResult, MultiTaskTrainer
from .random_forest import RandomForestClassifier
from .semisupervised import solve_semisupervised
from .training_data import ConceptTrainingData, build_training_data

__all__ = [
    "AdHocDetector",
    "ConceptTrainingData",
    "DETECTION_METHODS",
    "DPDetector",
    "DecisionTreeClassifier",
    "DetectorRefitCache",
    "FrozenEmbedding",
    "KernelPCA",
    "MultiTaskResult",
    "MultiTaskTrainer",
    "RandomForestClassifier",
    "build_training_data",
    "knn_indices",
    "manifold_matrices",
    "solve_semisupervised",
]
