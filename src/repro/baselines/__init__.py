"""Baseline analyzers the paper compares against (PBound)."""

from .pbound import PBoundAnalyzer

__all__ = ["PBoundAnalyzer"]
