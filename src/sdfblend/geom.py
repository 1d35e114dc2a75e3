"""Core geometry: point sets, meshes, analytic CSG signed-distance scenes,
and the seeded sampling routines that produce training data.

Conventions
-----------
* World space is the unit cube ``[-0.5, 0.5]^3``; valid scenes fit inside it.
* Points are float64 arrays of shape (n, 3). Every sampler is a pure
  function of its inputs and an explicit integer seed.
* Primitive SDFs are exact; CSG nodes combine children with min/max, which
  is a signed-distance *bound* (exact on primitive interiors/exteriors away
  from blend seams).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (CheckpointError, SamplingError, SceneError, check_array,
                     check_document, check_json, check_number, read_json)

SAMPLE_TAGS = ("near-surface", "uniform", "surface", "positive")

SCENE_SCHEMA_VERSION = 1
SAMPLES_SCHEMA_VERSION = 1

# largest entry of |R^T R - I| a primitive's rotation may have
ROTATION_TOL = 1e-6

# Grid window: at most this many points per `SceneSpec.sdf` call from
# surfacing and from SceneSpec.box_signs (SceneSpec.sdf is not blocked,
# unlike BasisField.sdf_batch), which bounds a scene oracle's memory.
GRID_CHUNK = 65536

# surface_points: a projected point is on the surface where |sdf| <= this,
# after at most SURFACE_MAX_ITERS Newton steps along a central-difference
# gradient of step SURFACE_GRAD_STEP
SURFACE_TOL = 1e-4
SURFACE_MAX_ITERS = 30
SURFACE_GRAD_STEP = 1e-6


# ---------------------------------------------------------------------------
# Value types


@dataclass
class PointCloud:
    """Ordered set of 3-D points, shape (n, 3)."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class TriMesh:
    """Indexed triangle mesh."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise ValueError("triangle index out of range")
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise ValueError("degenerate triangle (repeated vertex index)")

    def is_empty(self) -> bool:
        return self.triangles.shape[0] == 0


@dataclass
class SampleSet:
    """Query points with target signed distances and per-sample origin tags."""

    points: np.ndarray
    targets: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.targets = np.asarray(self.targets, dtype=np.float64).reshape(-1)
        self.tags = np.asarray(self.tags)
        if not (len(self.points) == len(self.targets) == len(self.tags)):
            raise ValueError("points, targets and tags must have equal length")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets contain non-finite values")

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "version": SAMPLES_SCHEMA_VERSION,
            "points": self.points.tolist(),
            "targets": self.targets.tolist(),
            "tags": [str(t) for t in self.tags],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampleSet":
        """Sample set from a sample-set document. Raises CheckpointError on an
        unknown version, a missing field, `tags` that is not a list of
        SAMPLE_TAGS, or `points`/`targets` that are not finite arrays of
        shape (n, 3) and (n,) for n tags."""
        check_document(doc, SAMPLES_SCHEMA_VERSION, "sample-set", CheckpointError)
        missing = sorted({"points", "targets", "tags"} - set(doc))
        if missing:
            raise CheckpointError(f"sample-set document has no {missing}")
        tags = check_json(doc["tags"], list, "sample-set tags", CheckpointError)
        unknown = [t for t in tags if t not in SAMPLE_TAGS]
        if unknown:
            raise CheckpointError(f"sample-set tag {unknown[0]!r} is not one "
                                  f"of {SAMPLE_TAGS}")
        n = len(tags)
        return cls(check_array(doc["points"], (n, 3), "sample-set points",
                               CheckpointError),
                   check_array(doc["targets"], (n,), "sample-set targets",
                               CheckpointError),
                   np.array(tags))


# ---------------------------------------------------------------------------
# Scene nodes


def _rotation_axis_angle(axis, degrees: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise SceneError("rotation axis must be nonzero")
    x, y, z = axis / n
    c = np.cos(np.radians(degrees))
    s = np.sin(np.radians(degrees))
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


@dataclass(kw_only=True)
class Primitive:
    """A primitive's fields hold what it was built with until a SceneSpec
    checks and converts them (SceneSpec._validate)."""

    translate: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray | None = None  # 3x3 world-from-local, or None

    def _to_local(self, pts: np.ndarray) -> np.ndarray:
        q = pts - self.translate
        if self.rotation is not None:
            q = q @ self.rotation  # (R^T q^T)^T
        return q

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        return self._local_sdf(self._to_local(pts))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        he = self._local_bounds()  # half-extents of the local bounding box
        corners = he * np.array([[sx, sy, sz] for sx in (-1, 1)
                                 for sy in (-1, 1) for sz in (-1, 1)])
        if self.rotation is not None:
            corners = corners @ self.rotation.T
        corners = corners + self.translate
        return corners.min(axis=0), corners.max(axis=0)

    def to_json_dict(self) -> dict:
        """The node as the scene reader takes it: `type` and the sizes from
        _PRIM_TYPES/_PRIM_SIZES, then any transform."""
        out = {"type": next(k for k, v in _PRIM_TYPES.items() if v is type(self))}
        for name in _PRIM_SIZES[type(self)]:
            value = getattr(self, name)
            out[name] = value.tolist() if name == "half_extents" else value
        if np.any(self.translate != 0.0):
            out["translate"] = self.translate.tolist()
        if self.rotation is not None:
            out["rotation"] = self.rotation.tolist()
        return out


@dataclass(kw_only=True)
class Sphere(Primitive):
    radius: float = 0.0

    def _local_sdf(self, q):
        return np.linalg.norm(q, axis=-1) - self.radius

    def _local_bounds(self):
        return np.full(3, self.radius)


@dataclass(kw_only=True)
class Box(Primitive):
    half_extents: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def _local_sdf(self, q):
        d = np.abs(q) - self.half_extents
        outside = np.linalg.norm(np.maximum(d, 0.0), axis=-1)
        inside = np.minimum(d.max(axis=-1), 0.0)
        return outside + inside

    def _local_bounds(self):
        return self.half_extents.copy()


@dataclass(kw_only=True)
class Torus(Primitive):
    """Ring in the local xy-plane around the z axis."""

    major_radius: float = 0.0
    minor_radius: float = 0.0

    def _local_sdf(self, q):
        ring = np.hypot(q[..., 0], q[..., 1]) - self.major_radius
        return np.hypot(ring, q[..., 2]) - self.minor_radius

    def _local_bounds(self):
        r = self.major_radius + self.minor_radius
        return np.array([r, r, self.minor_radius])


@dataclass(kw_only=True)
class Cylinder(Primitive):
    """Finite cylinder along the local z axis."""

    radius: float = 0.0
    half_height: float = 0.0

    def _local_sdf(self, q):
        dr = np.hypot(q[..., 0], q[..., 1]) - self.radius
        dz = np.abs(q[..., 2]) - self.half_height
        outside = np.hypot(np.maximum(dr, 0.0), np.maximum(dz, 0.0))
        inside = np.minimum(np.maximum(dr, dz), 0.0)
        return outside + inside

    def _local_bounds(self):
        return np.array([self.radius, self.radius, self.half_height])


@dataclass(kw_only=True)
class Capsule(Primitive):
    """Segment along the local z axis inflated by a radius."""

    radius: float = 0.0
    half_height: float = 0.0

    def _local_sdf(self, q):
        w = q.copy()
        w[..., 2] -= np.clip(w[..., 2], -self.half_height, self.half_height)
        return np.linalg.norm(w, axis=-1) - self.radius

    def _local_bounds(self):
        return np.array([self.radius, self.radius,
                         self.half_height + self.radius])


@dataclass(kw_only=True)
class _Combine:
    children: list = field(default_factory=list)
    kind: str = "union"

    def sdf(self, pts):
        vals = [c.sdf(pts) for c in self.children]
        if self.kind == "union":
            return np.minimum.reduce(vals)
        if self.kind == "intersection":
            return np.maximum.reduce(vals)
        # difference: first child minus the rest
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, -v)
        return out

    def bounds(self):
        bs = [c.bounds() for c in self.children]
        if self.kind == "union":
            return (np.min([b[0] for b in bs], axis=0),
                    np.max([b[1] for b in bs], axis=0))
        if self.kind == "intersection":
            lo = np.max([b[0] for b in bs], axis=0)
            hi = np.min([b[1] for b in bs], axis=0)
            return lo, np.maximum(hi, lo)
        return bs[0]

    def to_json_dict(self):
        return {"type": self.kind,
                "children": [c.to_json_dict() for c in self.children]}


def union(*children) -> _Combine:
    return _Combine(children=list(children), kind="union")


def intersection(*children) -> _Combine:
    return _Combine(children=list(children), kind="intersection")


def difference(a, *rest) -> _Combine:
    return _Combine(children=[a, *rest], kind="difference")


# ---------------------------------------------------------------------------
# SceneSpec


_PRIM_SIZES = {
    Sphere: ("radius",),
    Box: ("half_extents",),
    Torus: ("major_radius", "minor_radius"),
    Cylinder: ("radius", "half_height"),
    Capsule: ("radius", "half_height"),
}
_PRIM_TYPES = {"sphere": Sphere, "box": Box, "torus": Torus,
               "cylinder": Cylinder, "capsule": Capsule}
_COMBINE_KINDS = ("union", "intersection", "difference")


@dataclass
class SceneSpec:
    """Analytic CSG scene acting as a ground-truth SDF oracle."""

    root: Primitive | _Combine

    def __post_init__(self):
        self._scale = self._validate(self.root)
        lo, hi = self.root.bounds()
        if np.any(lo < -0.5 - 1e-9) or np.any(hi > 0.5 + 1e-9):
            raise SceneError(
                f"scene bounds [{lo}, {hi}] exceed the unit cube [-0.5, 0.5]^3"
            )

    @staticmethod
    def _validate(node) -> float:
        """The one check of a scene's nodes, whether read from JSON or built
        in code: raise SceneError, naming the field as `Type.field`, unless
        every scalar size is a finite number > 0 (it becomes a float), every
        `half_extents` and `translate` a finite 3-vector (it becomes a
        float64 array), with `half_extents` > 0, every `rotation` None or a
        finite, orthonormal 3x3 array (it becomes a float64 one), and every
        combine node a union, intersection or difference of enough
        children. Return the largest |translate| entry plus sizes of a
        primitive, for box_signs."""
        name = type(node).__name__
        if isinstance(node, Primitive):
            sizes = 0.0
            for size in _PRIM_SIZES[type(node)]:
                what = f"{name}.{size}"
                v = getattr(node, size)
                v = (check_array(v, (3,), what, SceneError) if size == "half_extents"
                     else float(check_number(v, what, -np.inf, error=SceneError)))
                if not np.all(v > 0.0):
                    raise SceneError(f"{what} must be > 0, "
                                     f"got {np.asarray(v).tolist()}")
                setattr(node, size, v)
                sizes += float(np.sum(v))
            node.translate = check_array(node.translate, (3,),
                                         f"{name}.translate", SceneError)
            # _to_local applies R^T and bounds() maps corners with R: both
            # hold only for an orthogonal R (det -1 is still an isometry)
            if node.rotation is not None:
                r = node.rotation = check_array(node.rotation, (3, 3),
                                                f"{name}.rotation", SceneError)
                err = np.abs(r.T @ r - np.eye(3)).max()
                if not err <= ROTATION_TOL:
                    raise SceneError(f"{name}.rotation is not orthonormal "
                                     f"(max |R^T R - I| = {err:.3g})")
            return float(np.abs(node.translate).max()) + sizes
        if isinstance(node, _Combine):
            if node.kind not in _COMBINE_KINDS:
                raise SceneError(f"{name}.kind must be one of {_COMBINE_KINDS}, "
                                 f"got {node.kind!r}")
            if not node.children:
                raise SceneError("combine node has no children")
            if node.kind == "difference" and len(node.children) < 2:
                raise SceneError("difference needs at least two children")
            return max(SceneSpec._validate(c) for c in node.children)
        raise SceneError(f"unknown scene node {name}")

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance (bound) for an (n, 3) array of query points."""
        pts = np.asarray(pts, dtype=np.float64)
        return self.root.sdf(pts)

    def box_signs(self, edges: np.ndarray) -> np.ndarray:
        """Certified sign of the scene over the sub-boxes of K closed boxes,
        with the contract of certify.box_signs: `edges`, (K, 3, s + 1),
        splits box k along axis a at the coordinates edges[k, a], and the
        result, int8 (K, s, s, s), is +1 where `sdf` gives a finite value
        >= 0 at every point of the sub-box, -1 where it gives a finite value
        < 0, and 0 where neither is proven. A sub-box with computed midpoint
        m and half-widths r takes the sign of v = sdf(m) where |v| > L ||r||_2
        + margin, L = 1 + 2 ROTATION_TOL, margin = 2^-40 S + tiny, S the
        largest |m_a| + r_a plus the scene's largest |translate| entry plus
        sizes of a primitive (`_scale`). `sdf` sees at most GRID_CHUNK
        midpoints a call.

        Proof. Let phi be `sdf` in exact arithmetic on the stored numbers.
        Each primitive's local SDF is 1-Lipschitz in q (the torus and the
        cylinder apply a 1-Lipschitz 2-D function to (|q_xy| - R, q_z) and
        (|q_xy| - r, |q_z| - h), both 1-Lipschitz maps of q), q = (x - t)
        R, and min, max and negation keep a Lipschitz constant.
        _validate bounds each entry of R^T R - I by ROTATION_TOL, up to the
        rounding of its check (a few eps), so ||R||_2^2 <= 1 + 3
        ROTATION_TOL + 32 eps and ||R||_2 < L: phi is L-Lipschitz. Let x
        lie in the sub-box [lo, hi]. lo <= m <= hi, since rounding is
        monotone, so |x_a| <= (1 + eps) (|m_a| + r_a), |x_a - t_a| <= (1 +
        eps) S and ||q||_2 < 2 S. In the evaluation at x every number is
        at most 4 S in magnitude; q errs by at most 16 eps S in norm, each
        of the few rounded operations of a local SDF by eps of its result
        (2^-1074 in the subnormal range), and the 1-Lipschitz steps pass an
        error on unamplified, so |sdf(x) - phi(x)| < 2^-46 S + tiny / 4;
        min and max are exact. Also ||x - m||_2 <= (1 + eps) ||r||_2 <=
        (1 + eps) sqrt(3) S. So sdf(x) > phi(m) - L ||x - m||_2 - 2^-46 S
        - tiny / 4 > v - L ||r||_2 - 2^-44 S - tiny / 2, and the computed
        threshold errs by less than 16 eps (L ||r||_2 + margin): a v above
        it gives sdf(x) > 0, and a v below minus it sdf(x) < 0 the same
        way. With S <= 2^500 no square overflows, so sdf(x) is finite; a
        larger S or a NaN never certifies.
        """
        edges = np.asarray(edges, dtype=np.float64)
        s = edges.shape[2] - 1
        lo, hi = edges[..., :-1], edges[..., 1:]
        mid = 0.5 * (lo + hi)
        rad = np.maximum(hi - mid, mid - lo)
        lip = 1.0 + 2.0 * ROTATION_TOL
        out = np.zeros(len(edges) * s ** 3, dtype=np.int8)
        for w in range(0, len(out), GRID_CHUNK):
            box, *ijk = np.unravel_index(np.arange(w, min(w + GRID_CHUNK, len(out))),
                                         (len(edges), s, s, s))
            m = np.stack([mid[box, a, ijk[a]] for a in range(3)], axis=1)
            r = np.stack([rad[box, a, ijk[a]] for a in range(3)], axis=1)
            scale = np.max(np.abs(m) + r, axis=1) + self._scale
            bound = (lip * np.sqrt(np.sum(r * r, axis=1)) + 2.0 ** -40 * scale
                     + np.finfo(np.float64).tiny)
            bound[~(scale <= 2.0 ** 500)] = np.inf
            v = self.sdf(m)
            out[w:w + len(v)] = (v > bound).view(np.int8) - (v < -bound).view(np.int8)
        return out.reshape(len(edges), s, s, s)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.root.bounds()

    def to_json_dict(self) -> dict:
        return {"version": SCENE_SCHEMA_VERSION, "root": self.root.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SceneSpec":
        """Scene from a scene document. Raises SceneError on an unknown
        version or node type, a missing field, an object, list or number
        where the schema has another kind, an array of the wrong shape, a
        non-finite number, or a size that is not > 0."""
        check_document(doc, SCENE_SCHEMA_VERSION, "scene", SceneError)
        if "root" not in doc:
            raise SceneError("scene document has no root node")
        return cls(root=_node_from_json(doc["root"]))

    @classmethod
    def load(cls, path) -> "SceneSpec":
        return cls.from_json_dict(read_json(path, "scene", SceneError))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)
            f.write("\n")


def _node_from_json(doc: dict) -> Primitive | _Combine:
    """The node of a scene document, built as code would build it: its
    fields are checked where SceneSpec._validate checks the whole tree."""
    check_json(doc, dict, "scene node", SceneError)
    kind = doc.get("type")
    if kind in _COMBINE_KINDS:
        children = check_json(doc.get("children", []), list,
                              f"scene {kind} children", SceneError)
        return _Combine(children=[_node_from_json(c) for c in children], kind=kind)
    if not isinstance(kind, str) or kind not in _PRIM_TYPES:
        raise SceneError(f"unknown scene node type {kind!r}")
    prim = _PRIM_TYPES[kind]
    try:
        args = {name: doc[name] for name in _PRIM_SIZES[prim]}
        if "rotate" in doc and "rotation" not in doc:
            rot = check_json(doc["rotate"], dict, f"scene {kind} rotate", SceneError)
            args["rotation"] = _rotation_axis_angle(
                check_array(rot["axis"], (3,), f"scene {kind} rotate axis", SceneError),
                float(check_number(rot["degrees"], f"scene {kind} rotate degrees",
                                   -np.inf, error=SceneError)))
    except KeyError as e:
        raise SceneError(f"{kind} node is missing field {e}") from e
    # a JSON null is no rotation matrix: only a missing one means none
    if doc.get("rotation", 0) is None:
        raise SceneError(f"{prim.__name__}.rotation is null, expected a 3x3 array")
    args.update((k, doc[k]) for k in ("translate", "rotation") if k in doc)
    return prim(**args)


def scene_sdf(scene: SceneSpec, x) -> float:
    """Signed distance of a single point (total function)."""
    return float(scene.sdf(np.asarray(x, dtype=np.float64).reshape(1, 3))[0])


# ---------------------------------------------------------------------------
# Sampling


def spawn_seeds(seed: int, n: int) -> list[int]:
    """`n` independent integer seeds derived from `seed`."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def _numeric_gradient(scene: SceneSpec, pts: np.ndarray) -> np.ndarray:
    g = np.empty_like(pts)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = SURFACE_GRAD_STEP
        g[:, ax] = (scene.sdf(pts + e) - scene.sdf(pts - e)) / (2.0 * SURFACE_GRAD_STEP)
    return g


def surface_points(scene: SceneSpec, n: int, seed: int) -> PointCloud:
    """`n` points with |sdf| <= SURFACE_TOL, via seeded rejection + Newton
    projection.

    Candidates are drawn uniformly in the scene's (slightly inflated)
    bounding box and projected along the numeric SDF gradient. Raises
    SamplingError if more than 1% of candidates fail to converge.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = scene.bounds()
    lo, hi = lo - 0.02, hi + 0.02
    collected: list[np.ndarray] = []
    n_collected = 0
    tried = 0
    failed = 0
    while n_collected < n:
        m = max(n - n_collected, 256)
        p = rng.uniform(lo, hi, size=(m, 3))
        for _ in range(SURFACE_MAX_ITERS):
            d = scene.sdf(p)
            live = np.abs(d) > SURFACE_TOL
            if not live.any():
                break
            g = _numeric_gradient(scene, p[live])
            gn = np.sum(g * g, axis=1)
            gn = np.maximum(gn, 1e-12)
            p[live] -= (d[live] / gn)[:, None] * g
        d = scene.sdf(p)
        ok = np.abs(d) <= SURFACE_TOL
        tried += m
        failed += int(np.count_nonzero(~ok))
        if failed > 0.01 * tried and tried >= 512:
            raise SamplingError(
                f"surface projection failed for {failed}/{tried} candidates "
                f"(> 1%); scene may be degenerate"
            )
        keep = p[ok]
        collected.append(keep)
        n_collected += len(keep)
    pts = np.concatenate(collected, axis=0)[:n]
    return PointCloud(pts)


def farthest_point_sample(cloud: PointCloud, n: int, seed: int) -> np.ndarray:
    """Greedy farthest-point subset; returns the chosen indices in order.

    The first index is drawn from the seed; each later pick maximizes the
    minimum distance to the already-chosen set, ties broken by lowest index.
    """
    m = len(cloud)
    if not 1 <= n <= m:
        raise ValueError(f"n={n} out of range for cloud of {m} points")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(m))
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = first
    pts = cloud.points
    dists = np.linalg.norm(pts - pts[first], axis=1)
    for k in range(1, n):
        nxt = int(np.argmax(dists))  # argmax returns the lowest tied index
        chosen[k] = nxt
        dists = np.minimum(dists, np.linalg.norm(pts - pts[nxt], axis=1))
    return chosen


def sample_training_set(scene: SceneSpec, n_near: int, n_uniform: int,
                        noise_stds: tuple[float, float] = (0.01, 0.003),
                        seed: int = 0) -> SampleSet:
    """Near-surface + uniform query points with exact oracle targets."""
    if n_near + n_uniform < 1:
        raise ValueError("need at least one sample")
    if noise_stds[0] <= 0 or noise_stds[1] <= 0:
        raise ValueError("noise stds must be > 0")
    s_surf, s_noise, s_unif = spawn_seeds(seed, 3)
    parts, tags = [], []
    if n_near > 0:
        surf = surface_points(scene, n_near, s_surf).points
        rng = np.random.default_rng(s_noise)
        noise = rng.normal(size=(n_near, 3))
        half = (n_near + 1) // 2
        stds = np.where(np.arange(n_near) < half, noise_stds[0], noise_stds[1])
        parts.append(surf + stds[:, None] * noise)
        tags.append(np.full(n_near, "near-surface"))
    if n_uniform > 0:
        rng = np.random.default_rng(s_unif)
        parts.append(rng.uniform(-0.5, 0.5, size=(n_uniform, 3)))
        tags.append(np.full(n_uniform, "uniform"))
    pts = np.concatenate(parts, axis=0)
    return SampleSet(points=pts, targets=scene.sdf(pts),
                     tags=np.concatenate(tags))


def positive_points(scene: SceneSpec, n: int, margin: float, seed: int) -> PointCloud:
    """`n` points with sdf > margin, by rejection sampling in the unit cube."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    rng = np.random.default_rng(seed)
    collected: list[np.ndarray] = []
    n_collected = 0
    tried = 0
    while n_collected < n:
        m = max(n - n_collected, 1024)
        p = rng.uniform(-0.5, 0.5, size=(m, 3))
        ok = scene.sdf(p) > margin
        tried += m
        keep = p[ok]
        collected.append(keep)
        n_collected += len(keep)
        if tried >= 8192 and n_collected < 0.01 * tried:
            raise SamplingError(
                f"positive-point acceptance rate {n_collected}/{tried} below 1%"
            )
    return PointCloud(np.concatenate(collected, axis=0)[:n])


def sample_mesh_surface(mesh: TriMesh, n: int, seed: int) -> PointCloud:
    """Area-weighted uniform sampling of points on a triangle mesh."""
    if mesh.is_empty():
        raise ValueError("cannot sample an empty mesh")
    v = mesh.vertices
    t = mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    tri = rng.choice(len(t), size=n, p=areas / total)
    u = rng.random(n)
    w = rng.random(n)
    flip = u + w > 1.0
    u[flip], w[flip] = 1.0 - u[flip], 1.0 - w[flip]
    pts = a[tri] + u[:, None] * (b[tri] - a[tri]) + w[:, None] * (c[tri] - a[tri])
    return PointCloud(pts)
