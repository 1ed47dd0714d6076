"""Model serialization: export trained detectors to JSON and back.

§9 proposes shipping pre-trained models inside pre-installed store
clients; that requires a portable, dependency-free model format.  Each
boosted tree (a :class:`repro.ml.tree.Tree` of flat arrays in memory)
serialises to a nested-dict JSON document: internal nodes carry
``feature``, ``threshold``, ``left`` and ``right``, leaves carry
``leaf``, their weight.  With the imputer statistics this lets a deployed
client score without this library's training code.
"""

from __future__ import annotations

import json

import numpy as np

from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.preprocessing import FILL_VALUE, SimpleImputer
from ..ml.tree import Tree
from .detector import Detector

__all__ = [
    "export_boosted_model",
    "import_boosted_model",
    "export_detector",
    "import_detector",
]

FORMAT_VERSION = 1


def _node_to_dict(tree: Tree, i: int = 0) -> dict:
    if tree.feature[i] < 0:
        return {"leaf": float(tree.value[i])}
    return {
        "feature": int(tree.feature[i]),
        "threshold": float(tree.threshold[i]),
        "left": _node_to_dict(tree, tree.left[i]),
        "right": _node_to_dict(tree, tree.right[i]),
    }


def _expand_node(node: dict) -> tuple:
    """One nested node as :meth:`Tree.build` expects it."""
    if "leaf" in node:
        return float(node["leaf"]), None
    return 0.0, (int(node["feature"]), float(node["threshold"]), node["left"], node["right"])


def export_boosted_model(model: GradientBoostingClassifier) -> dict:
    """Serialise a fitted booster to a JSON-compatible dict."""
    if not hasattr(model, "trees_"):
        raise ValueError("model is not fitted")
    return {
        "format_version": FORMAT_VERSION,
        "type": "gradient_boosting",
        "learning_rate": model.learning_rate,
        "base_margin": model.base_margin_,
        "classes": [int(c) for c in model.classes_],
        "n_features": model.n_features_,
        "trees": [_node_to_dict(tree) for tree in model.trees_],
    }


def import_boosted_model(payload: dict) -> GradientBoostingClassifier:
    """Reconstruct a scoring-capable booster from its JSON form."""
    if payload.get("type") != "gradient_boosting":
        raise ValueError(f"not a boosted model payload: {payload.get('type')!r}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('format_version')!r}")
    model = GradientBoostingClassifier(learning_rate=payload["learning_rate"])
    model.base_margin_ = float(payload["base_margin"])
    model.classes_ = np.asarray(payload["classes"])
    model._constant_class = len(model.classes_) == 1
    model.n_features_ = int(payload["n_features"])
    model.trees_ = [Tree.build(tree, _expand_node) for tree in payload["trees"]]
    return model


def _imputer_to_dict(imputer: SimpleImputer) -> dict:
    # "strategy" and "fill_value" describe the one imputer there is; the
    # format keeps them, and an import reads only the statistics.
    return {
        "strategy": "median",
        "fill_value": FILL_VALUE,
        "statistics": [float(v) for v in imputer.statistics_],
    }


def _imputer_from_dict(payload: dict) -> SimpleImputer:
    imputer = SimpleImputer()
    imputer.statistics_ = np.asarray(payload["statistics"], dtype=np.float64)
    return imputer


def export_detector(detector: Detector, kind: str) -> str:
    """Serialise a fitted detector (imputer + booster) to JSON, labelled
    with its ``kind``, ``"app"`` or ``"device"``."""
    payload = {
        "format_version": FORMAT_VERSION,
        "detector": kind,
        "feature_names": list(detector.feature_names),
        "imputer": _imputer_to_dict(detector.imputer),
        "model": export_boosted_model(detector.model),
    }
    return json.dumps(payload)


def import_detector(text: str) -> Detector:
    """Reconstruct a detector exported with :func:`export_detector`."""
    payload = json.loads(text)
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported detector format version")
    detector = Detector(import_boosted_model(payload["model"]))
    detector.feature_names = tuple(payload["feature_names"])
    detector.imputer = _imputer_from_dict(payload["imputer"])
    return detector
