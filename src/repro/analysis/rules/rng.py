"""REP002: randomness must flow from explicit seeds, never global streams.

Replay is a pure function of (log, seed, config) because every random
draw derives from ``np.random.SeedSequence(seed, spawn_key=...)`` or an
explicitly seeded ``Generator``/``Random`` that is *passed in*.  One
call into the module-level ``random`` or legacy ``numpy.random.*``
stream couples unrelated components through hidden global state: the
draw order then depends on which components ran first, and a user's
result silently changes with the rest of the run.

Flagged:

* any module-level :mod:`random` function (``random.random()``,
  ``random.randint()``, ``random.seed()``, ...);
* ``random.Random()`` / ``random.SystemRandom()`` without a seed;
* legacy ``numpy.random`` module functions (``np.random.rand``,
  ``np.random.seed``, ``np.random.choice``, ...);
* ``np.random.default_rng()`` / ``np.random.RandomState()`` with *no*
  seed argument.

Allowed: ``default_rng(seed)``, ``SeedSequence``, ``Generator`` /
``Random(seed)`` instances passed as parameters.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Rule
from repro.analysis.findings import Severity

__all__ = ["UnseededRngRule"]

#: Module-level functions of stdlib ``random`` that draw from (or mutate)
#: the hidden global Mersenne Twister.
STDLIB_GLOBAL_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

#: Legacy ``numpy.random`` module-level API (the pre-Generator global
#: RandomState).  ``default_rng``/``RandomState`` are handled separately
#: (they are fine *with* a seed).
NUMPY_LEGACY_FNS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
}

#: Constructors that are fine seeded, flagged unseeded.
SEEDABLE_CTORS = {
    "random.Random",
    "random.SystemRandom",  # never deterministic, seed or not
    "numpy.random.default_rng",
    "numpy.random.RandomState",
}


def _is_none_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_seed_argument(node: ast.Call) -> bool:
    """True iff the call passes a *real* seed.

    ``default_rng()`` is unseeded, but so are ``default_rng(None)`` and
    ``RandomState(seed=None)`` — numpy documents ``None`` as "pull
    fresh OS entropy", which is exactly the nondeterminism this rule
    exists to block, so an explicit ``None`` must not count as seeded.
    """
    for arg in node.args:
        if not _is_none_constant(arg):
            return True
    for kw in node.keywords:
        if not _is_none_constant(kw.value):
            return True
    return False


class UnseededRngRule(Rule):
    id = "REP002"
    name = "seeded-rng-only"
    severity = Severity.ERROR

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved is None:
            return
        parts = resolved.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in STDLIB_GLOBAL_FNS
        ):
            self.report(
                node,
                f"`{resolved}()` draws from the hidden global stream — "
                "accept an explicitly seeded `random.Random(seed)` / "
                "numpy `Generator` parameter instead",
            )
            return
        if (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] in NUMPY_LEGACY_FNS
        ):
            self.report(
                node,
                f"legacy `{resolved}()` uses numpy's global RandomState — "
                "derive a `Generator` from `SeedSequence(seed, ...)` and "
                "pass it down",
            )
            return
        if resolved in SEEDABLE_CTORS:
            if resolved == "random.SystemRandom":
                self.report(
                    node,
                    "`random.SystemRandom` is OS-entropy backed and can "
                    "never replay deterministically",
                )
            elif not _has_seed_argument(node):
                self.report(
                    node,
                    f"unseeded `{resolved}()` — thread the run seed in "
                    "(e.g. `default_rng(seed)`), otherwise replays are "
                    "unreproducible",
                )
