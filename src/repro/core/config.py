"""AnalysisConfig: the one configuration object of the framework.

Every entry point used to re-declare the same knobs (architecture, opt
level, branch ratio, predefines) — ``Mira``, ``BatchAnalyzer``, and each CLI
subcommand separately.  :class:`AnalysisConfig` is the single frozen source
of truth:

* the :class:`~repro.core.pipeline.Pipeline` reads every stage's parameters
  from it,
* :meth:`fingerprint` is the content-addressed cache identity of an
  analysis (it subsumes the old per-call ``source_fingerprint`` plumbing),
* :meth:`to_json`/:meth:`from_json` round-trip it across process and
  machine boundaries (the batch engine ships configs to worker processes
  this way).

The JSON document is schema-versioned; loading a document with an unknown
``schema_version`` raises :class:`~repro.errors.SchemaError` instead of
silently misinterpreting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..compiler.arch import ArchDescription, default_arch
from ..errors import MiraError, SchemaError
from .input_processor import PIPELINE_VERSION, source_fingerprint
from .metric_generator import GeneratorOptions

__all__ = ["AnalysisConfig", "CONFIG_SCHEMA_VERSION"]

CONFIG_SCHEMA_VERSION = 1


def _normalize_predefines(predefined) -> tuple:
    """Canonicalize predefines into a sorted tuple of (name, value) string
    pairs, so equal configurations compare (and fingerprint) equal whatever
    mapping type or ordering they were built from."""
    if predefined is None:
        return ()
    if isinstance(predefined, dict):
        items = predefined.items()
    else:
        items = list(predefined)
    return tuple(sorted((str(k), str(v)) for k, v in items))


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable description of *how* to analyze (not *what*).

    :param arch: machine description (categories + parameters).
    :param opt_level: compiler optimization level, 0-3.
    :param default_branch_ratio: taken-branch fraction assumed for branches
        the polyhedral engine cannot count.
    :param predefined: preprocessor macro predefines; any mapping or pair
        iterable, normalized to a sorted tuple of string pairs.
    :param cache_dir: on-disk model cache location (``None`` = the default
        ``~/.cache/mira/models``).
    :param use_cache: cache policy for batch/corpus runs.
    :param symbolic_params: names to treat as *free model symbols*: each is
        declared as a synthetic global ``int`` after parsing (unless the
        source already declares it), so sizes that normally arrive as
        predefines can stay parametric in the generated model.  This is the
        sweep engine's late-binding hook (see :mod:`repro.core.sweep`).
    """

    arch: ArchDescription = field(default_factory=default_arch)
    opt_level: int = 2
    default_branch_ratio: float = 0.5
    predefined: tuple = ()
    cache_dir: str | None = None
    use_cache: bool = True
    symbolic_params: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.opt_level, int) or not 0 <= self.opt_level <= 3:
            raise MiraError(f"bad optimization level {self.opt_level!r} "
                            "(expected 0-3)")
        if not 0.0 <= float(self.default_branch_ratio) <= 1.0:
            raise MiraError(
                f"bad default_branch_ratio {self.default_branch_ratio!r} "
                "(expected 0..1)")
        object.__setattr__(self, "predefined",
                           _normalize_predefines(self.predefined))
        object.__setattr__(self, "symbolic_params",
                           tuple(sorted(str(n) for n in self.symbolic_params)))

    # -- derived views ------------------------------------------------------------
    def predefines(self) -> dict:
        """The predefines as a plain dict (preprocessor input format)."""
        return dict(self.predefined)

    def merged_predefines(self, extra: dict | None = None) -> dict:
        """Config predefines overlaid with per-call extras (stringified the
        same way ``__post_init__`` stringifies config predefines, so both
        spellings of the same predefine behave identically)."""
        out = self.predefines()
        out.update({str(k): str(v) for k, v in (extra or {}).items()})
        return out

    def gen_options(self) -> GeneratorOptions:
        return GeneratorOptions(
            default_branch_ratio=self.default_branch_ratio,
            opt_level=self.opt_level)

    def with_changes(self, **kw) -> "AnalysisConfig":
        """A copy with fields replaced (predefines re-normalized)."""
        return replace(self, **kw)

    # -- identity -----------------------------------------------------------------
    def fingerprint(self, source: str, filename: str = "<input>",
                    predefined: dict | None = None) -> str:
        """Content-addressed key of analyzing ``source`` under this config.

        Two analyses share a fingerprint iff they are guaranteed to produce
        the same model.  The batch engine's on-disk cache is keyed on this.
        """
        return source_fingerprint(
            source, self.arch, self.opt_level,
            predefined=self.merged_predefines(predefined),
            filename=filename,
            branch_ratio=self.default_branch_ratio,
            symbolic_params=self.symbolic_params)

    def identity_fingerprint(self, predefined: dict | None = None) -> str:
        """Source-free identity of the *configuration* itself.

        Every model-affecting knob, but no source and no filename: the
        per-function cache (:mod:`repro.core.units`) folds this into each
        function-unit fingerprint, so a config change invalidates every
        cached function while identical functions can be shared across
        files.  Cache policy fields (``cache_dir``/``use_cache``) are
        deliberately excluded — they affect where results live, not what
        they are."""
        import hashlib

        material = json.dumps(
            {
                "version": PIPELINE_VERSION,
                "arch": self.arch.fingerprint(),
                "opt_level": self.opt_level,
                "branch_ratio": str(self.default_branch_ratio),
                "predefined": sorted(
                    (str(k), str(v))
                    for k, v in self.merged_predefines(predefined).items()),
                "symbolic_params": list(self.symbolic_params),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- serialization ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "kind": "AnalysisConfig",
            "arch": self.arch.to_dict(),
            "opt_level": self.opt_level,
            "default_branch_ratio": self.default_branch_ratio,
            "predefined": {k: v for k, v in self.predefined},
            "cache_dir": self.cache_dir,
            "use_cache": self.use_cache,
            "symbolic_params": list(self.symbolic_params),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "AnalysisConfig":
        if not isinstance(d, dict):
            raise SchemaError("AnalysisConfig document must be an object")
        kind = d.get("kind", "AnalysisConfig")
        if kind != "AnalysisConfig":
            raise SchemaError(f"expected an AnalysisConfig document, "
                              f"got kind {kind!r}")
        version = d.get("schema_version")
        if version != CONFIG_SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported AnalysisConfig schema version {version!r} "
                f"(this build reads version {CONFIG_SCHEMA_VERSION})")
        arch = d.get("arch")
        return AnalysisConfig(
            arch=(ArchDescription.from_dict(arch)
                  if arch is not None else default_arch()),
            opt_level=d.get("opt_level", 2),
            default_branch_ratio=d.get("default_branch_ratio", 0.5),
            predefined=d.get("predefined") or (),
            cache_dir=d.get("cache_dir"),
            use_cache=d.get("use_cache", True),
            symbolic_params=tuple(d.get("symbolic_params") or ()),
        )

    @staticmethod
    def from_json(text: str) -> "AnalysisConfig":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"AnalysisConfig is not valid JSON: {exc}") \
                from None
        return AnalysisConfig.from_dict(doc)
