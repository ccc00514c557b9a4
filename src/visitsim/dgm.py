"""Data-generating mechanisms for panels with informative visit processes.

Three families are supported:

* ``joint_model`` -- visit gaps follow a Weibull proportional-hazards renewal
  process sharing a log-normal frailty u with the longitudinal outcome
  (association strength ``gamma``), optionally merged with scheduled yearly
  visits;
* ``gamma_treatment`` -- gaps drawn from a Gamma distribution whose scale
  depends on treatment only;
* ``gamma_treatment_lagged_y`` -- Gamma gaps whose scale additionally depends
  on the outcome recorded at the previous visit.

``simulate_panel`` is the one entry point for all three: it appends each
subject's visit times and outcomes to flat lists for the whole panel and
hands the panel's columns to ``build_panel`` once.  Every subject gets an
independent Philox substream, the one ``SeedSequence.spawn`` gives it from
the replication's seed, so the generated panel is bit-identical regardless
of evaluation order or worker count.  A counter-based generator needs only a
new key to start another stream (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011), so each panel hashes all its subjects' keys
in one vectorised pass and re-keys one generator from subject to subject.
Within a subject the draw order is fixed and documented in
``_subject_draws``.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import PanelDataset, build_panel
from .errors import ConfigError

CENSORING_DEFAULT = (5.0, 10.0)


class Family(str, enum.Enum):
    JOINT_MODEL = "joint_model"
    GAMMA_TREATMENT = "gamma_treatment"
    GAMMA_TREATMENT_LAGGED_Y = "gamma_treatment_lagged_y"


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete parameterisation of one data-generating mechanism."""

    family: Family
    n_subjects: int = 200
    weibull_shape: float = 1.05
    weibull_scale: float = 0.10
    beta: float = 1.0
    gamma: float = 0.0
    alpha0: float = 0.0
    alpha1: float = 1.0
    alpha2: float = 0.2
    sigma_u2: float = 1.0
    sigma_v2: float = 0.5
    sigma_e2: float = 1.0
    gamma_shape: float = 2.0
    psi: float = 0.0
    omega: float = 0.20
    sigma_xi2: float = 0.1
    regular_visits: bool = False
    regular_interval: float = 1.0
    # Open question in the design: whether a scheduled visit resets the clock
    # of the process-driven gap.  Default: it does (min-of-both, full reset).
    regular_resets_process: bool = True
    censoring_lower: float = CENSORING_DEFAULT[0]
    censoring_upper: float = CENSORING_DEFAULT[1]
    seed: int = 0
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        for name in ("sigma_u2", "sigma_v2", "sigma_e2", "sigma_xi2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.weibull_scale <= 0 or self.weibull_shape <= 0:
            raise ConfigError("weibull_scale and weibull_shape must be > 0")
        if self.gamma_shape <= 0:
            raise ConfigError("gamma_shape must be > 0")
        if not 0 < self.censoring_lower < self.censoring_upper:
            raise ConfigError("censoring bounds must satisfy 0 < lower < upper")
        if self.regular_visits and self.family is not Family.JOINT_MODEL:
            raise ConfigError("regular_visits is only defined for the joint_model family")
        if self.regular_visits and self.regular_interval <= 0:
            raise ConfigError("regular_interval must be > 0")

    @property
    def label(self) -> str:
        return self.tag or self.family.value

    def truths(self) -> dict[str, float]:
        """Default true parameter values for performance summaries.

        The regression coefficients of the outcome model are defined for all
        families; the visit-process and association parameters only when the
        panel really was generated from the joint model.
        """
        out = {
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "sigma_v2": self.sigma_v2,
            "sigma_e2": self.sigma_e2,
        }
        if self.family is Family.JOINT_MODEL:
            out.update(
                {
                    "beta": self.beta,
                    "lambda": self.weibull_scale,
                    "p": self.weibull_shape,
                    "gamma": self.gamma,
                    "sigma_u2": self.sigma_u2,
                }
            )
        return out


def draw_weibull_gap(u01, lam: float, p: float, linpred) -> float | np.ndarray:
    """Invert the Weibull cumulative hazard to turn uniforms into gap times.

    Solves lam * t**p * exp(linpred) = -log(u01) for t, i.e. the inversion
    method for proportional-hazards event times.  Accepts scalars or arrays.
    """
    u01 = np.asarray(u01, dtype=float)
    if np.any((u01 <= 0.0) | (u01 >= 1.0)) or not np.all(np.isfinite(u01)):
        raise ValueError("u01 must lie strictly inside (0, 1)")
    if lam <= 0 or p <= 0:
        raise ValueError("lam and p must be > 0")
    out = (-np.log(u01) / (lam * np.exp(linpred))) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _n_words(x) -> int:
    """How many uint32 words SeedSequence makes of ``x``, an int or a (nested) sequence of ints."""
    if isinstance(x, (int, np.integer)):
        return max(1, (int(x).bit_length() + 31) // 32)
    return sum(_n_words(v) for v in x)


def _hashmix(values: np.ndarray, h: int, mult: int):
    """SeedSequence's hash of the uint32 ``values`` under the constant ``h``; returns (hashed, next h)."""
    out = values ^ np.uint32(h)
    h = h * mult & _MASK32
    out *= np.uint32(h)
    return out ^ (out >> np.uint32(16)), h


def _child_keys(seed: np.random.SeedSequence, n: int) -> np.ndarray:
    """The Philox keys of ``seed``'s children 0 to n-1 (n <= 2**32), as an (n, 2) uint64 array.

    Child i is ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,),
    pool_size=seed.pool_size)``, and ``Philox(child)`` is keyed with
    ``child.generate_state(2, np.uint64)``.  The child's entropy words are
    seed's, zero-padded to the pool size, and then the word i.  Mixed up to
    that last word, its pool is ``seed.pool``, because SeedSequence fills a
    short pool with hashes of 0, as zero padding does.  The word i is then
    mixed into each pool word, after pool_size hash steps per earlier word,
    and generate_state reads the first four pool words.  Both steps run here
    on all n children at once.
    """
    size = seed.pool_size
    words = max(_n_words(seed.entropy), size) + _n_words(seed.spawn_key)
    h = _INIT_A * pow(_MULT_A, size * words, 1 << 32) & _MASK32
    index = np.arange(n, dtype=np.uint32)
    state = []
    for word in seed.pool[:4]:  # mix(word, hashmix(i))
        hashed, h = _hashmix(index, h, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * int(word) & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        state.append(mixed ^ (mixed >> np.uint32(16)))
    h = _INIT_B
    for j in range(4):  # generate_state(2, np.uint64): four uint32 words, paired little-endian
        state[j], h = _hashmix(state[j], h, _MULT_B)
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _subject_rngs(seed, n: int):
    """Yield one independent Philox substream per subject, split from ``seed``.

    ``seed`` is either an integer or a SeedSequence (the study harness passes
    per-replication SeedSequences so that (replication, subject) indexes the
    substream).  Subject i gets the stream of ``Generator(Philox(child))``
    for the child ``seed.spawn`` would give a fresh sequence, without
    advancing ``seed``, so reusing a SeedSequence reproduces the panel.  One
    Generator serves every subject: it is re-keyed to the next subject's key
    with a zero counter, as ``Philox(child)`` starts.  So each yielded stream
    is valid only until the next one is yielded; draw from it before then.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    for key in _child_keys(seed, n):
        bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                               "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


def _subject_draws(rng: np.random.Generator, config: ScenarioConfig):
    """Fixed leading draw order for every subject: z, process effect, v, C.

    The censoring time is drawn before any gap or outcome noise so that the
    number of visits a subject ends up with can never shift the draws of
    another quantity.
    """
    random, standard_normal = rng.random, rng.standard_normal
    z = 1 if random() < 0.5 else 0
    proc_var = config.sigma_u2 if config.family is Family.JOINT_MODEL else config.sigma_xi2
    # numpy draws rng.normal(0, s) as 0 + s * standard_normal() and rng.uniform(a, b)
    # as a + (b - a) * random(): the same bits, at half the cost of a call with arguments
    proc = 0.0 + math.sqrt(proc_var) * standard_normal()
    v = 0.0 + math.sqrt(config.sigma_v2) * standard_normal()
    c = config.censoring_lower + (config.censoring_upper - config.censoring_lower) * random()
    return z, proc, v, c


def _simulate_joint_subject(rng: np.random.Generator, config: ScenarioConfig, times, ys) -> tuple[int, float]:
    """Append one subject's visit times and outcomes to ``times`` and ``ys``; return its (z, C).

    Visit k's outcome is alpha0 + z alpha1 + t alpha2 + gamma u + v + eps,
    added in that order; its noise eps is drawn before the gap to the next visit.
    """
    z, u, v, c = _subject_draws(rng, config)
    random, standard_normal, log, floor = rng.random, rng.standard_normal, np.log, math.floor
    sig_e = math.sqrt(config.sigma_e2)
    base, alpha2, u_term = config.alpha0 + z * config.alpha1, config.alpha2, config.gamma * u
    scale = config.weibull_scale * np.exp(config.beta * z + u)
    inv_p = 1.0 / config.weibull_shape
    regular, resets, interval = config.regular_visits, config.regular_resets_process, config.regular_interval
    t = 0.0
    pending: float | None = None  # absolute time of the pending process visit (additive mode)
    while True:
        times.append(t)
        ys.append(base + t * alpha2 + u_term + v + (0.0 + sig_e * standard_normal()))  # rng.normal(0, sig_e)
        if pending is None:
            u01 = random()
            while u01 == 0.0:  # random() covers [0, 1): reject an exact 0 to stay in (0, 1)
                u01 = random()
            # numpy scalars, not math: math.log/exp and float ** round differently,
            # and the panel must keep draw_weibull_gap's bits
            pending = t + float((-log(u01) / scale) ** inv_p)
        t_next = pending
        if regular:
            # next scheduled time strictly after the current visit
            sched = (floor(t / interval + 1e-12) + 1) * interval
            if sched < t_next:
                t_next = sched
        if t_next >= c or t_next <= t:
            return z, c  # censored, or a gap too small to advance the clock
        if regular and t_next < pending and resets:
            pending = None  # scheduled visit fired: discard the pending draw, clock restarts
        elif t_next == pending:
            pending = None  # process visit fired: next gap drawn from the new clock
        t = t_next


def _simulate_gamma_subject(rng: np.random.Generator, config: ScenarioConfig, times, ys) -> tuple[int, float]:
    """Append one subject's visit times and outcomes to ``times`` and ``ys``; return its (z, C).

    The outcome is that of ``_simulate_joint_subject`` with gamma u = 0.
    """
    z, xi, v, c = _subject_draws(rng, config)
    standard_normal, gamma, exp = rng.standard_normal, rng.gamma, math.exp
    sig_e = math.sqrt(config.sigma_e2)
    base, alpha2, u_term = config.alpha0 + z * config.alpha1, config.alpha2, 0.0
    shape, log_scale0 = config.gamma_shape, -config.psi * config.beta * z + xi
    omega = config.omega if config.family is Family.GAMMA_TREATMENT_LAGGED_Y else None
    t = 0.0
    while True:
        times.append(t)
        y = base + t * alpha2 + u_term + v + (0.0 + sig_e * standard_normal())
        ys.append(y)
        t_next = t + gamma(shape, exp(log_scale0 if omega is None else log_scale0 + omega * y))
        if t_next >= c or t_next <= t:
            return z, c  # censored, or a gap too small to advance the clock
        t = t_next


def simulate_panel(config: ScenarioConfig, seed) -> PanelDataset:
    """Generate one panel from ``config``'s family, one substream per subject.

    A subject's visits end at the censoring time, or earlier at a drawn gap
    that does not advance the visit clock: a Gamma or Weibull gap that rounds
    to zero against the current visit time (under a large visit intensity and
    a small Weibull or Gamma shape).  Subjects get ids 1 to ``n_subjects``.
    """
    simulate = _simulate_joint_subject if config.family is Family.JOINT_MODEL else _simulate_gamma_subject
    times, ys, zc, ends = [], [], [], []
    for rng in _subject_rngs(seed, config.n_subjects):
        zc.append(simulate(rng, config, times, ys))
        ends.append(len(times))
    z, c = zip(*zc)
    return build_panel(np.arange(1, config.n_subjects + 1), z, c, np.diff(ends, prepend=0), times, ys)


# --- scenario config files -------------------------------------------------

_BOOL_KEYS = {"regular_visits", "regular_resets_process"}
_INT_KEYS = {"n_subjects", "seed"}
_STR_KEYS = {"family", "tag"}
_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}

CONFIG_SCHEMA_HELP = """\
Scenario files are INI-style with a [scenario] section and an optional
[truth] section.

[scenario] keys (all optional except family):
  family                  joint_model | gamma_treatment | gamma_treatment_lagged_y
  n_subjects              int, default 200
  weibull_shape           Weibull shape p of the visit hazard, default 1.05
  weibull_scale           Weibull scale lambda of the visit hazard, default 0.10
  beta                    treatment effect on the visit process, default 1.0
  gamma                   association between visit frailty and outcome, default 0.0
  alpha0 alpha1 alpha2    outcome intercept / treatment / time effects (0, 1, 0.2)
  sigma_u2                visit frailty variance, default 1.0
  sigma_v2                outcome random-intercept variance, default 0.5
  sigma_e2                outcome residual variance, default 1.0
  gamma_shape             shape of Gamma gap draws, default 2.0
  psi                     treatment effect on the Gamma gap scale, default 0.0
  omega                   lagged-outcome effect on the Gamma gap scale, default 0.20
  sigma_xi2               Gamma-family subject effect variance, default 0.1
  regular_visits          true/false: add scheduled visits (joint model only)
  regular_interval        spacing of scheduled visits in years, default 1.0
  regular_resets_process  true/false: scheduled visit resets the gap clock, default true
  censoring_lower/upper   Uniform censoring bounds, default 5 and 10
  seed                    default master seed, int
  tag                     scenario name used in output tables

[truth] holds parameter=value pairs used as true values when summarising a
study; defaults derived from [scenario] are extended/overridden by entries
here.  Unknown keys in [scenario] and unknown sections are errors.
"""


def parse_scenario_text(text: str, source: str = "<config>") -> tuple[ScenarioConfig, dict[str, float]]:
    """Parse scenario config content; see CONFIG_SCHEMA_HELP for the schema."""
    path = source
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = set(parser.sections())
    unknown = sections - {"scenario", "truth"}
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")

    kwargs: dict = {}
    for key, raw in parser.items("scenario"):
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}: unknown [scenario] key {key!r}")
        try:
            if key in _BOOL_KEYS:
                kwargs[key] = _parse_bool(raw)
            elif key in _INT_KEYS:
                kwargs[key] = int(raw)
            elif key in _STR_KEYS:
                kwargs[key] = raw.strip()
            else:
                kwargs[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {raw!r}") from exc
    if "family" not in kwargs:
        raise ConfigError(f"{path}: [scenario] must set family")
    try:
        config = ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    truths = config.truths()
    if parser.has_section("truth"):
        for key, raw in parser.items("truth"):
            try:
                truths[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad [truth] value for {key!r}: {raw!r}") from exc
    return config, truths


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "1", "yes", "on"):
        return True
    if val in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def with_seed(config: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    """Return the config with its seed replaced, when an override is given."""
    if seed is None:
        return config
    return replace(config, seed=int(seed))
