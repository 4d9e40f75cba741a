"""Span tracing by wrapping the public functions of `screloc` modules.

`Tracer.install` replaces module and class attributes with wrappers that
record a span (name, parent, start, duration, attributes, error) around
each call. Internal calls go through the same module attributes, so
`ransac_pnp -> pnp_minimal` or `regress_batch -> cross_attention` nest
correctly. Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _nbytes(args, kwargs, result):
    return {"bytes": int(args[1].nbytes)}


def _ncorr(args, kwargs, result):
    return {"n": len(args[0])}


def _n_obs(args, kwargs, result):
    return {"observations": sum(len(v.observations) for v in result.mapping_views + result.query_views)}


def _replaced(args, kwargs, result):
    return {"admitted": len(result)}


def _ran(args, kwargs, result):
    return {"ran": result is not None and math.isfinite(result)}


def _opt_kind(args, kwargs, result):
    return {"kind": "head" if len(args[0].tensors) > 1 else "code"}


# (module name, attribute path, attribute hook). A dotted path wraps a
# method on a class; the hook derives span attributes from the call.
TRACED = [
    ("synthworld", "gen_scene", None),
    ("synthworld", "render_tuple", _n_obs),
    ("synthworld", "save_scene_tuple", None),
    ("synthworld", "load_scene_tuple", None),
    ("buffers", "build_pretrain_buffers", None),
    ("buffers", "build_novel_buffer", None),
    ("buffers", "save_buffer", None),
    ("buffers", "load_buffer", None),
    ("buffers", "sample_batch", None),
    ("binio", "write_array", _nbytes),
    ("binio", "read_array", None),
    ("regressor", "regress_batch", None),
    ("regressor", "laplace_nll_batch", None),
    ("autodiff", "cross_attention", None),
    ("autodiff", "backward", None),
    ("autodiff", "AdamW.step", _opt_kind),
    ("pretrain", "PretrainRun.mapping_iteration", None),
    ("pretrain", "PretrainRun.query_iteration", _ran),
    ("pretrain", "PretrainRun.rotate_pool", _replaced),
    ("pretrain", "PretrainRun.save_state", None),
    ("pretrain", "PretrainRun.load_state", None),
    ("pretrain", "trimmed_mean", None),
    ("pretrain", "fit_map_code", None),
    ("geometry", "ransac_pnp", None),
    ("geometry", "pnp_minimal", _ncorr),
    ("geometry", "reprojection_errors", None),
    ("geometry", "refine_pose", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, sid: int, error: str | None = None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(sid, type(exc).__name__)
                raise
            if hook is not None:
                tracer.spans[sid].attrs.update(hook(args, kwargs, result))
            tracer.end(sid)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self, modules: dict) -> None:
        """Wrap every TRACED attribute; `modules` maps short names to modules."""
        for mod_name, path, hook in TRACED:
            owner = modules[mod_name]
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            self.wrap(owner, attr, f"{mod_name}.{path}", hook)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "parent": s.parent, "name": s.name,
                       "start_us": round((s.start - t0) * 1e6, 1),
                       "dur_us": round((s.end - s.start) * 1e6, 1)}
                if s.attrs:
                    rec["attrs"] = s.attrs
                if s.error:
                    rec["error"] = s.error
                fh.write(json.dumps(rec) + "\n")

    def phase_of(self, sid: int, phases: dict[str, str]) -> str | None:
        """Label of the nearest ancestor whose name is a key of `phases`."""
        p = self.spans[sid].parent
        while p is not None:
            label = phases.get(self.spans[p].name)
            if label is not None:
                return label
            p = self.spans[p].parent
        return None
