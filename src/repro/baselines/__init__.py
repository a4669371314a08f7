"""Baseline the paper positions itself against: the classic primary-key
snapshot diff (ApexSQL/Redgate-class tools, §1–2). The other baseline, the
trivial explanation E_empty, is ``repro.core.trivial_explanation``."""
from .keyed_diff import KeyedDiff, keyed_diff

__all__ = ["KeyedDiff", "keyed_diff"]
