"""From-scratch ML substrate for the RacketStore reproduction.

Implements every algorithm evaluated in the paper's Tables 1 and 2 —
Extreme Gradient Boosting, Random Forest, Logistic Regression,
K-Nearest Neighbors, Learning Vector Quantization, and linear SVM —
plus the supporting machinery: metrics (precision/recall/F1/AUC/FPR),
stratified k-fold cross-validation, and the SMOTE /
over- / under-sampling strategies from §7.2 and §8.2.
"""

from .calibration import IsotonicCalibrator
from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y, clone
from .forest import RandomForestClassifier
from .inspection import PermutationImportance, permutation_importance
from .gradient_boosting import GradientBoostingClassifier
from .knn import KNeighborsClassifier
from .logistic import LogisticRegression
from .lvq import LVQClassifier
from .metrics import (
    ClassificationReport,
    accuracy_score,
    classification_report,
    f1_score,
    false_positive_rate,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
)
from .model_selection import CrossValidationResult, cross_validate
from .preprocessing import SimpleImputer, StandardScaler
from .sampling import class_counts, random_oversample, random_undersample, smote
from .svm import LinearSVC
from .tuning import GridSearchResult, grid_search
from .tree import DecisionTreeClassifier

__all__ = [
    "BaseEstimator",
    "IsotonicCalibrator",
    "ClassifierMixin",
    "check_array",
    "check_random_state",
    "check_X_y",
    "clone",
    "RandomForestClassifier",
    "PermutationImportance",
    "permutation_importance",
    "GridSearchResult",
    "grid_search",
    "GradientBoostingClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "LVQClassifier",
    "LinearSVC",
    "DecisionTreeClassifier",
    "ClassificationReport",
    "accuracy_score",
    "classification_report",
    "f1_score",
    "false_positive_rate",
    "precision_score",
    "recall_score",
    "roc_auc_score",
    "roc_curve",
    "CrossValidationResult",
    "cross_validate",
    "SimpleImputer",
    "StandardScaler",
    "class_counts",
    "random_oversample",
    "random_undersample",
    "smote",
]
