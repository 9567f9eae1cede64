"""Domain types for the multiuser MIMO downlink and its virtual uplink.

Conventions used throughout the package:

* The base station has M antennas; user k (k = 0..K-1) has N_k receive
  antennas and carries L_k data streams.
* Channels are stored uplink-oriented: H_k is M x N_k, so the downlink
  channel seen by user k is H_k^H.  The downlink matrix is never
  materialized separately.
* Streams use a single global index l = 0..L_tot-1 in user-major order
  (all of user 0's streams first, then user 1's, ...).
* Beamformers are unit-norm columns; power is a separate nonnegative
  vector of length L_tot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionError, ValidationError

DOWNLINK = "downlink"
VIRTUAL_UPLINK = "virtual_uplink"

#: Relative tolerance for unit-norm and consistency checks.  Double
#: precision leaves ample headroom above accumulation error at M, N <= 16.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class SystemDims:
    """Antenna/user/stream counts: M transmit antennas, K users, per-user
    receive antennas N and stream counts L."""

    M: int
    K: int
    N: tuple
    L: tuple

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(int(n) for n in self.N))
        object.__setattr__(self, "L", tuple(int(x) for x in self.L))

    @property
    def L_tot(self) -> int:
        return sum(self.L)

    def stream_owner(self) -> np.ndarray:
        """Owning user index for every global stream index."""
        return np.repeat(np.arange(self.K), self.L)

    def user_streams(self, k: int) -> slice:
        """Global stream slice belonging to user k."""
        start = sum(self.L[:k])
        return slice(start, start + self.L[k])

    def violations(self) -> list:
        out = []
        if self.M < 1:
            out.append("dims.M: must be >= 1")
        if self.K < 1:
            out.append("dims.K: must be >= 1")
        if len(self.N) != self.K:
            out.append("dims.N: must list one antenna count per user")
        if len(self.L) != self.K:
            out.append("dims.L: must list one stream count per user")
        for k, n in enumerate(self.N):
            if n < 1:
                out.append(f"dims.N[{k}]: must be >= 1")
        for k, (n, el) in enumerate(zip(self.N, self.L)):
            if not 1 <= el <= n:
                out.append(f"dims.L[{k}]: must satisfy 1 <= L_k <= N_k")
        return out


@dataclass(frozen=True)
class ChannelSet:
    """A problem instance: per-user channels plus noise and power budget."""

    dims: SystemDims
    H: tuple  # K matrices, each M x N_k, complex
    sigma2: float
    p_max: float
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "H", tuple(np.asarray(h, dtype=complex) for h in self.H)
        )


def validate(instance: ChannelSet) -> list:
    """Check every ChannelSet invariant; return violation descriptors.

    Returns an empty list iff the instance is well formed.  Each entry
    names the offending field and the rule, e.g. ``"sigma2: must be > 0"``.
    Never raises.
    """
    out = list(instance.dims.violations())
    d = instance.dims
    if len(instance.H) != d.K:
        out.append("H: must contain one matrix per user")
    else:
        for k, h in enumerate(instance.H):
            if h.shape != (d.M, d.N[k]):
                out.append(f"H[{k}]: must have shape M x N_k = {d.M} x {d.N[k]}")
            elif not np.all(np.isfinite(h.view(float))):
                out.append(f"H[{k}]: entries must be finite")
        if not out and not any(np.any(h) for h in instance.H):
            out.append("H: at least one channel must be nonzero")
    if not (np.isfinite(instance.sigma2) and instance.sigma2 > 0):
        out.append("sigma2: must be > 0")
    if not (np.isfinite(instance.p_max) and instance.p_max > 0):
        out.append("p_max: must be > 0")
    if instance.seed is not None and not (isinstance(instance.seed, Integral)
                                          and instance.seed >= 0):
        out.append("seed: must be an integer >= 0 or null")
    return out


def gen_channel(dims: SystemDims, sigma2: float, p_max: float, seed=None) -> ChannelSet:
    """Draw an i.i.d. Rayleigh instance: entries of each H_k are
    circularly-symmetric complex Gaussian with zero mean and unit variance.

    Deterministic given ``seed``.
    """
    bad = dims.violations()
    if bad:
        raise DimensionError("; ".join(bad))
    rng = np.random.default_rng(seed)
    H = []
    for n in dims.N:
        re = rng.standard_normal((dims.M, n))
        im = rng.standard_normal((dims.M, n))
        H.append((re + 1j * im) / np.sqrt(2.0))
    return ChannelSet(dims=dims, H=tuple(H), sigma2=float(sigma2),
                      p_max=float(p_max), seed=seed)


@dataclass(frozen=True)
class PrecoderSet:
    """Unit-norm beamformer columns for one link direction plus per-stream
    powers.

    ``by_user[k]`` holds user k's columns: M x L_k in the downlink,
    N_k x L_k in the virtual uplink.  ``powers`` is the global length-L_tot
    power vector (p downlink, q uplink).
    """

    direction: str
    by_user: tuple
    powers: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "by_user", tuple(np.asarray(b, dtype=complex) for b in self.by_user)
        )
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))

    @property
    def L_tot(self) -> int:
        return sum(b.shape[1] for b in self.by_user)

    def stacked(self) -> np.ndarray:
        """All beamformer columns side by side (downlink: the global M x L
        precoder matrix)."""
        return np.concatenate(self.by_user, axis=1)


@dataclass(frozen=True)
class EffectiveChannel:
    """Stacked per-stream effective channel vectors htil_l = H_k vbar_l.

    ``cols`` is M x L_tot with column l the effective channel of stream l;
    ``stream_owner[l]`` is the owning user.
    """

    cols: np.ndarray
    stream_owner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=complex))
        object.__setattr__(self, "stream_owner", np.asarray(self.stream_owner, dtype=int))

    @property
    def M(self) -> int:
        return self.cols.shape[0]

    @property
    def L_tot(self) -> int:
        return self.cols.shape[1]


def build_effective_channel(ch: ChannelSet, uplink: PrecoderSet) -> EffectiveChannel:
    """Form htil_l = H_k vbar_l for every stream, in global stream order."""
    if uplink.direction != VIRTUAL_UPLINK:
        raise ValidationError("uplink precoders required (direction = virtual_uplink)")
    d = ch.dims
    if len(uplink.by_user) != d.K:
        raise DimensionError("precoder set must have one block per user")
    cols = []
    for k in range(d.K):
        vb = uplink.by_user[k]
        if vb.shape != (d.N[k], d.L[k]):
            raise DimensionError(
                f"user {k}: beamformer block must be N_k x L_k = {d.N[k]} x {d.L[k]}"
            )
        norms = np.linalg.norm(vb, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL * max(1.0, d.N[k])):
            raise ValidationError(f"user {k}: beamformer columns must have unit norm")
        cols.append(ch.H[k] @ vb)
    return EffectiveChannel(cols=np.concatenate(cols, axis=1),
                            stream_owner=d.stream_owner())


def random_unit_precoders(dims: SystemDims, direction: str, seed=None,
                          powers=None) -> PrecoderSet:
    """Seeded random unit-norm beamformer columns for either direction."""
    rng = np.random.default_rng(seed)
    rows = [dims.M] * dims.K if direction == DOWNLINK else list(dims.N)
    by_user = []
    for k in range(dims.K):
        b = rng.standard_normal((rows[k], dims.L[k])) \
            + 1j * rng.standard_normal((rows[k], dims.L[k]))
        by_user.append(b / np.linalg.norm(b, axis=0, keepdims=True))
    if powers is None:
        powers = np.zeros(dims.L_tot)
    return PrecoderSet(direction=direction, by_user=tuple(by_user), powers=powers)


# ---------------------------------------------------------------------------
# JSON round-trip.  Complex entries are encoded as [re, im]; floats print in
# shortest round-trip form, so serialize -> deserialize is exact.

def _cplx_matrix_to_lists(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _cplx_matrix_from_lists(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=complex)


def channel_to_dict(ch: ChannelSet) -> dict:
    return {
        "dims": {"M": ch.dims.M, "K": ch.dims.K,
                 "N": list(ch.dims.N), "L": list(ch.dims.L)},
        "sigma2": ch.sigma2,
        "p_max": ch.p_max,
        "seed": ch.seed,
        "H": [_cplx_matrix_to_lists(h) for h in ch.H],
    }


def channel_from_dict(d: dict) -> ChannelSet:
    dims = SystemDims(M=int(d["dims"]["M"]), K=int(d["dims"]["K"]),
                      N=tuple(d["dims"]["N"]), L=tuple(d["dims"]["L"]))
    H = tuple(_cplx_matrix_from_lists(h) for h in d["H"])
    seed = d.get("seed")
    return ChannelSet(dims=dims, H=H, sigma2=float(d["sigma2"]),
                      p_max=float(d["p_max"]),
                      seed=None if seed is None else int(seed))


def save_instance(ch: ChannelSet, path) -> None:
    with open(path, "w") as f:
        json.dump(channel_to_dict(ch), f, indent=1)
        f.write("\n")


def load_instance(path) -> ChannelSet:
    """Read an instance file; a document that is not an instance raises
    ValidationError."""
    with open(path) as f:
        doc = json.load(f)
    try:
        return channel_from_dict(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(
            f"{path}: not an instance ({type(e).__name__}: {e})") from e
