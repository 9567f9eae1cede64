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

Instances are generated as stacks over a list of seeds (`gen_stacks`),
which is how `verify` makes each batch of trials: per seed, one draw from
its channel generator and one from its precoder generator.  Every
generator is numpy's PCG64 with numpy's normal sampler, bitwise the
generator ``np.random.default_rng(seed)`` gives; only the hashing of the
seeds into PCG64 states (numpy's SeedSequence algorithm) is done here,
for all the seeds of a call in one array pass (`_seed_words`).  Each run
of consecutive users with equal (N_k, L_k) is one more stacked axis: per
run, one reshape of the draws, one divide by the column norms, one
unit-norm check and one stacked matmul for the effective columns, and
`gen_stacks` returns the run stacks as they are.  One draw
of n1 + n2 + ... normals is bitwise the draws of n1, n2, ... one after
the other, and the other steps are elementwise or slice by slice, so
every instance is bitwise what `gen_channel`, `random_unit_precoders`
and `build_effective_channel` give for its seed; those are stacks of one
of the same code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from numbers import Integral, Real

import numpy as np

from .errors import DimensionError, ValidationError

DOWNLINK = "downlink"
VIRTUAL_UPLINK = "virtual_uplink"

#: Relative tolerance for unit-norm and consistency checks.  Double
#: precision leaves ample headroom above accumulation error at M, N <= 16.
NORM_TOL = 1e-12

#: Seed-stream tag of the uplink precoders of an instance seed, so that its
#: channels and precoders never share a stream.
PRECODER_TAG = 1


def is_count(x) -> bool:
    """An integer, not a bool: JSON's true is no count."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number, not a bool or a string: JSON's true is no number."""
    return isinstance(x, Real) and not isinstance(x, bool)


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
    if instance.seed is not None and not (is_count(instance.seed)
                                          and instance.seed >= 0):
        out.append("seed: must be an integer >= 0 or null")
    return out


def gen_channel(dims: SystemDims, sigma2: float, p_max: float, seed=None) -> ChannelSet:
    """Draw an i.i.d. Rayleigh instance: entries of each H_k are
    circularly-symmetric complex Gaussian with zero mean and unit variance.

    Deterministic given ``seed``: a stack of one of `gen_stacks`' channels.
    """
    return gen_channels(dims, sigma2, p_max, [seed])[0]


def gen_channels(dims: SystemDims, sigma2: float, p_max: float,
                 seeds) -> list:
    """`gen_channel` of each of ``seeds``, drawn as one stack: instance
    b's channels are views of slice b of its users' stacks."""
    _check_dims(dims)
    H = _users(_channels(dims, _seed_words(seeds)))
    return [ChannelSet(dims=dims, H=tuple(h[b] for h in H),
                       sigma2=float(sigma2), p_max=float(p_max), seed=seed)
            for b, seed in enumerate(seeds)]


def gen_stacks(dims: SystemDims, seeds) -> tuple:
    """The instances of ``seeds``, as stacks of B = len(seeds): per run of
    n consecutive users with equal (N_k, L_k) (`_runs`) the channels
    (B x n x M x N_k; [b, j] is what `gen_channel` draws for seeds[b] and
    the run's user j) and the uplink beamformers (B x n x N_k x L_k, what
    `random_unit_precoders` draws for [seeds[b], PRECODER_TAG]), and the
    effective columns (B x M x L_tot, `build_effective_channel` of the
    two), all bitwise.

    The B channel seeds and the B tagged precoder seeds are hashed in one
    `_seed_words` pass, and each of their generators makes one draw; the
    dims are checked once, and the unit norms once per run.
    """
    _check_dims(dims)
    B = len(seeds)
    words = _seed_words([*seeds, *([s, PRECODER_TAG] for s in seeds)])
    H = _channels(dims, words[:B])
    V = _unit_columns(dims.N, dims.L, words[B:])
    return H, V, _effective_cols(dims, H, V)


def _check_dims(dims: SystemDims) -> None:
    bad = dims.violations()
    if bad:
        raise DimensionError("; ".join(bad))


def _runs(rows, cols) -> list:
    """(n, (r, c)) for each run of n consecutive users k with equal
    (rows[k], cols[k]) = (r, c), in user order."""
    return [(len(list(run)), shape) for shape, run in groupby(zip(rows, cols))]


def _users(stacks) -> tuple:
    """Per user the B x r x c view of its run's B x n x r x c stack."""
    return tuple(x[:, j] for x in stacks for j in range(x.shape[1]))


def _channels(dims: SystemDims, words) -> list:
    """Per run of users with equal (N_k, L_k) the B x n x M x N_k stack
    of the channels of the seeds hashed to ``words``, their normals times
    1/sqrt 2 (bitwise numpy's complex division by sqrt 2)."""
    return _gaussians(words, [(n, (dims.M, N)) for n, (N, _) in _runs(
        dims.N, dims.L)], 1.0 / np.sqrt(2.0))


def _unit_columns(rows, cols, words) -> list:
    """Per run of users with equal (rows[k], cols[k]) the B x n x rows[k]
    x cols[k] stack of the unit-norm columns of the seeds hashed to
    ``words``."""
    return [np.divide(x, np.linalg.norm(x, axis=2, keepdims=True), out=x)
            for x in _gaussians(words, _runs(rows, cols))]


def _gaussians(words, runs, scale=1.0) -> list:
    """Per run (n, (r, c)) of ``runs`` the B x n x r x c stack of
    circularly-symmetric complex Gaussians re + 1j im, whose parts are
    ``scale`` times unit normals.  Row b's generator is numpy's PCG64
    seeded with the state ``words[b]`` (numpy's ISeedSequence interface,
    so the instance is bitwise ``np.random.default_rng(seed)``'s); it
    makes one draw of them all, which is bitwise the draws of user 0's
    real parts, its imaginary parts, user 1's real parts and so on one
    after the other, and is dropped."""
    random = np.random  # imported here, at the first draw, not with dualprec
    random.bit_generator.ISeedSequence.register(_SeedState)
    sizes = [2 * n * r * c for n, (r, c) in runs]
    Z = np.empty((len(words), sum(sizes)))
    for z, w in zip(Z, words):
        random.Generator(random.PCG64(_SeedState(w))).standard_normal(out=z)
    Z *= scale
    out, start = [], 0
    for (n, (r, c)), size in zip(runs, sizes):
        X = Z[:, start:start + size].reshape(len(Z), n, 2, r, c)
        x = 1j * X[:, :, 1]
        x += X[:, :, 0]  # re + 1j im, without a second complex temporary
        out.append(x)
        start += size
    return out


class _SeedState:
    """One seed's PCG64 state, the four uint64 words `_seed_words` hashed
    it to, behind numpy's ISeedSequence interface (`_gaussians` registers
    the class as one)."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a seed's state is 4 uint64 words, asked for "
                             f"{n_words} {np.dtype(dtype)}")
        return self.words


# numpy's SeedSequence hash (pool size 4), in uint32 arithmetic
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _seed_words(seeds) -> np.ndarray:
    """The B x 4 uint64 words ``np.random.SeedSequence(seed)
    .generate_state(4, np.uint64)`` gives for each of ``seeds``, hashed
    for all of them at once.

    numpy's algorithm makes the same sequence of hash constants whatever
    the entropy, so each step is one array operation over the rows: the
    pool of 4 lanes starts as the hashes of the first 4 entropy words (0
    past a row's last), each lane is mixed into the 3 others (one 4 x B
    operation per lane, whose own row is put back), every further entropy
    word into all 4 (rows with fewer words keep their pool), and the 8
    output words are one 4 x 2 x B operation.  A seed numpy rejects
    raises its exception.
    """
    flat, lens = [], []
    for seed in seeds:
        entropy = _entropy(seed)
        flat += entropy
        lens.append(len(entropy))
    lens = np.array(lens, dtype=np.intp)
    W = max(4, lens.max(initial=0))
    E = np.zeros((len(lens), W), dtype=np.uint32)
    E[np.arange(W) < lens[:, None]] = flat  # row by row, 0 past the last
    E = E.T
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (W - 4))  # columns
    pool = _hashmix(E[:4], h[0:4], h[1:5])
    for s, (xor, mult) in enumerate(_LANES):
        mixed = _mix(pool, _hashmix(pool[s], xor, mult))
        mixed[s] = pool[s]
        pool = mixed
    k = 16
    for i in range(4, W):
        pool = np.where(lens > i, _mix(pool, _hashmix(
            E[i], h[k:k + 4], h[k + 1:k + 5])), pool)
        k += 4
    g = _hash_constants(_INIT_B, _MULT_B, 8)
    out = np.tile(pool, (2, 1))
    out ^= g[:8]
    out *= g[1:]
    out ^= out >> 16
    # little-endian pairs of the 8 words of each row
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


def _hashmix(v, xor, mult):
    """numpy's hashmix of v, step by step with the hash constants before
    (``xor``) and after (``mult``) each step's update, as columns."""
    v = v ^ xor
    v *= mult
    v ^= v >> 16
    return v


def _mix(x, y):
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> 16
    return r


@cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i = 0..n, as a read-only uint32
    column (each call shares it)."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


#: Per pool lane s the hash constants of its mixing step before and after
#: each update, as 4 x 1 columns: lane d != s takes the step's
#: (d - (d > s))-th, lane s (put back) the first.
_LANES = [(h[i], h[i + 1]) for h in [_hash_constants(_INIT_A, _MULT_A, 16)]
          for i in (4 + 3 * s + np.array([d - (d > s) if d != s else 0
                                          for d in range(4)])
                    for s in range(4))]


def _entropy(seed) -> list:
    """The 32-bit entropy words numpy's SeedSequence takes from ``seed``,
    with its exceptions: an int's little-endian words (0 is one word), a
    sequence's words one after the other, 128 fresh random bits for
    None."""
    if seed is None:
        import secrets
        seed = secrets.randbits(128)
    elif not isinstance(seed, (int, np.integer, list, tuple, range,
                               np.ndarray)):
        raise TypeError("SeedSequence expects int or sequence of ints for "
                        f"entropy not {seed}")
    return _words(seed)


def _words(x) -> list:
    if type(x) is int and 0 <= x <= _MASK32:  # the common case
        return [x]
    if isinstance(x, (int, np.integer)):
        if x < 0:
            raise ValueError("expected non-negative integer")
        x = int(x)
        out = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            out.append(x & _MASK32)
        return out
    if isinstance(x, str):  # as numpy reads a string inside a sequence
        return _words(int(x, 16 if x.startswith("0x") else 10))
    if isinstance(x, (float, np.inexact)):
        raise TypeError("seed must be integer")
    len(x)  # numpy's TypeError for what is not a sequence
    return [w for v in x for w in _words(v)]


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

    ``cols`` is M x L_tot with column l the effective channel of stream l.
    """

    cols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=complex))

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
    for k, vb in enumerate(uplink.by_user):
        if vb.shape != (d.N[k], d.L[k]):
            raise DimensionError(
                f"user {k}: beamformer block must be N_k x L_k = {d.N[k]} x {d.L[k]}"
            )
    runs = _runs(d.N, d.L)
    return EffectiveChannel(cols=_effective_cols(
        d, _run_stacks(runs, ch.H), _run_stacks(runs, uplink.by_user))[0])


def _run_stacks(runs, blocks) -> list:
    """Per run of ``runs`` (`_runs` of the users' (N_k, L_k)) its users'
    ``blocks`` (one per user) as a stack of one, 1 x n x r x c, as
    `_effective_cols` takes them."""
    users = iter(blocks)
    return [np.array([next(users) for _ in range(n)])[None] for n, _ in runs]


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``: `np.linalg.norm`'s arithmetic
    without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _effective_cols(d: SystemDims, H, V) -> np.ndarray:
    """The effective columns (B x M x L_tot) of the stacks of channels
    ``H`` (per run of users with equal (N_k, L_k), B x n x M x N_k) and
    unit beamformers ``V`` (B x n x N_k x L_k), one unit-norm check and
    one stacked matmul per run; a column that is not of unit norm
    raises."""
    B = len(V[0])
    cols = np.empty((B, d.M, d.L_tot), dtype=complex)
    k = l = 0
    for h, vb in zip(H, V):
        n, N, c = vb.shape[1:]
        norms = _norms(vb, 2)
        bad = np.abs(norms - 1.0) > NORM_TOL * max(1.0, N)
        if np.count_nonzero(bad):
            raise ValidationError(
                f"user {k + bad.nonzero()[1][0]}: beamformer columns must "
                "have unit norm")
        # user k + j's columns, a view of cols split by user
        cols[:, :, l:l + n * c].reshape(B, d.M, n, c).swapaxes(1, 2)[...] = \
            h @ vb
        k, l = k + n, l + n * c
    return cols


def random_unit_precoders(dims: SystemDims, direction: str, seed=None,
                          powers=None) -> PrecoderSet:
    """Seeded random unit-norm beamformer columns for either direction."""
    rows = [dims.M] * dims.K if direction == DOWNLINK else list(dims.N)
    by_user = tuple(b[0] for b in _users(
        _unit_columns(rows, dims.L, _seed_words([seed]))))
    if powers is None:
        powers = np.zeros(dims.L_tot)
    return PrecoderSet(direction=direction, by_user=by_user, powers=powers)


# ---------------------------------------------------------------------------
# JSON round-trip.  Complex entries are encoded as [re, im]; floats print in
# shortest round-trip form, so serialize -> deserialize is exact.

def _cplx_matrix_to_lists(m: np.ndarray) -> list:
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _cplx_matrix_from_lists(rows) -> np.ndarray:
    out = [[complex(re, im) for re, im in row] for row in rows]
    if any(isinstance(x, bool) for row in rows for z in row for x in z):
        raise ValidationError("H: entries must be numbers, got a boolean")
    return np.array(out, dtype=complex)


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
    dims = d["dims"]
    if not isinstance(dims["N"], list) or not isinstance(dims["L"], list):
        raise ValidationError("dims.N and dims.L: must be lists of integers")
    counts = [("dims.M", dims["M"]), ("dims.K", dims["K"]),
              *((f"dims.N[{k}]", n) for k, n in enumerate(dims["N"])),
              *((f"dims.L[{k}]", n) for k, n in enumerate(dims["L"]))]
    if d.get("seed") is not None:
        counts.append(("seed", d["seed"]))
    for name, x in counts:  # JSON integers, not floats, strings or bools
        if not is_count(x):
            raise ValidationError(f"{name}: must be an integer, got {x!r}")
    for name in ("sigma2", "p_max"):  # JSON numbers, not strings or bools
        if not is_real(d[name]):
            raise ValidationError(f"{name}: must be a number, got {d[name]!r}")
    H = tuple(_cplx_matrix_from_lists(h) for h in d["H"])
    return ChannelSet(dims=SystemDims(M=dims["M"], K=dims["K"], N=dims["N"],
                                      L=dims["L"]),
                      H=H, sigma2=float(d["sigma2"]), p_max=float(d["p_max"]),
                      seed=d.get("seed"))


def save_instance(ch: ChannelSet, path) -> None:
    """Write ``json.dumps(channel_to_dict(ch))`` and a newline: the
    instance as one compact line, in one write."""
    with open(path, "w") as f:
        f.write(json.dumps(channel_to_dict(ch)) + "\n")


def load_instance(path) -> ChannelSet:
    """Read an instance file; a document that is not an instance raises
    ValidationError."""
    with open(path) as f:
        doc = json.load(f)
    try:
        return channel_from_dict(doc)
    except (KeyError, TypeError, ValueError, ValidationError) as e:
        raise ValidationError(
            f"{path}: not an instance ({type(e).__name__}: {e})") from e
