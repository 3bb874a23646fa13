"""Run configuration: field/extension/character data plus budgets.

A configuration is a single JSON document

    {
      "p": 3,
      "delta": {"val": 0, "unit": 2},        # delta = unit * p^val
      "psi_conductor": 0,
      "eta": {"kind": "extension"},          # or {"r_pi": "1/2", "k": 0}
      "eta_prime": {"kind": "default"},      # or {"r_pi": ..., "k": ...}
      "budgets": {"max_cosets": 500000, "max_n": 3, "max_p": 5},
      "measure": "unnormalized",             # or "normalized" (or unnorm, norm)
      "seed": 0
    }

Every field has a default, so the empty document is valid.  Validation is
all-or-nothing: a rejected document raises SchemaError (with a JSON
pointer to the offending member) before any command runs, so a bad
configuration never partially executes.  The constructor builds the
field and then the extension, so a p or delta that they refuse is a
SchemaError at /p or /delta whatever the command.

`charge` is the one limit on work: every enumeration of shells, unit
cosets or cells, and every loop that builds packet rows, is charged
against `budgets.max_cosets` of the `with config.scope()` block the CLI
or `run_suite` runs in (else the default), before it starts.

`read_int` and `read_fraction` are the readers of every value from
outside the program: the CLI reads its payload fields and its
`--seed`/`--measure` flags through them and through RunConfig.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import DomainError, ScaleExceeded, SchemaError
from .padic import FieldContext, QuadExtContext
from .characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    ExtCharacter,
    eta_for_extension,
    eta_prime_default,
)

DEFAULTS = {
    "p": 3,
    "delta": {"val": 0, "unit": 2},
    "psi_conductor": 0,
    "eta": {"kind": "extension"},
    "eta_prime": {"kind": "default"},
    "budgets": {"max_cosets": 500000, "max_n": 3, "max_p": 5},
    "measure": "unnormalized",
    "seed": 0,
}

_TOP_KEYS = set(DEFAULTS)

_MAX_COSETS = ContextVar("max_cosets", default=DEFAULTS["budgets"]["max_cosets"])


def charge(p, lams, what):
    """ScaleExceeded when p^lam summed over the iterable `lams` exceeds
    the run's coset limit; the message is `what` and the limit.  A loop
    calls it once, before it starts; a count n of rows or pairs is
    charged as n^1.  The sum stops at the first term past the limit, so
    a lazy `lams` of terms p^lam >= 1 costs at most limit + 1 of them to
    refuse, however long it is."""
    limit = _MAX_COSETS.get()
    # p^lam > limit once lam reaches the limit's bit length
    cap = limit.bit_length()
    total = 0
    for lam in lams:
        total += p ** min(lam, cap)
        if total > limit:
            raise ScaleExceeded(
                f"{what} exceeds budgets/max_cosets = {limit}")


def _fail(pointer, message):
    raise SchemaError(f"{pointer}: {message}")


def read_int(value, pointer, low=None, high=None):
    """An integer from outside the program (config, payload or flag), in
    [low, high]; a boolean is not an integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(pointer, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        _fail(pointer, f"must be >= {low}, got {value}")
    if high is not None and value > high:
        _fail(pointer, f"must be <= {high}, got {value}")
    return value


def read_fraction(value, pointer):
    """A rational from outside the program: an integer or an 'a/b'
    string; a boolean is not a rational."""
    if isinstance(value, bool):
        _fail(pointer, f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(pointer, f"not a rational number: {value!r}")
    _fail(pointer, f"expected an integer or 'a/b' string, got {value!r}")


class RunConfig:
    """Validated configuration, with its field and extension built."""

    def __init__(self, document=None):
        doc = dict(document or {})
        for key in doc:
            if key not in _TOP_KEYS:
                _fail(f"/{key}", "unknown configuration key")
        self.p = read_int(doc.get("p", DEFAULTS["p"]), "/p", low=3)

        delta = doc.get("delta", DEFAULTS["delta"])
        if isinstance(delta, int) and not isinstance(delta, bool):
            self.delta_fraction = Fraction(delta)
        elif isinstance(delta, dict):
            for key in delta:
                if key not in ("val", "unit"):
                    _fail(f"/delta/{key}", "unknown key (want val, unit)")
            val = read_int(delta.get("val", 0), "/delta/val", low=0, high=1)
            unit = read_fraction(delta.get("unit", 1), "/delta/unit")
            if unit == 0:
                _fail("/delta/unit", "unit must be nonzero")
            self.delta_fraction = unit * Fraction(self.p) ** val
        else:
            _fail("/delta", f"expected an integer or {{val, unit}}, got {delta!r}")

        self.psi_conductor = read_int(
            doc.get("psi_conductor", DEFAULTS["psi_conductor"]), "/psi_conductor"
        )

        self._eta_spec = self._character_spec(
            doc.get("eta", DEFAULTS["eta"]), "/eta", kinds=("extension",)
        )
        self._eta_prime_spec = self._character_spec(
            doc.get("eta_prime", DEFAULTS["eta_prime"]), "/eta_prime",
            kinds=("default",),
        )

        budgets = doc.get("budgets", {})
        if not isinstance(budgets, dict):
            _fail("/budgets", f"expected an object, got {budgets!r}")
        merged = dict(DEFAULTS["budgets"])
        for key, value in budgets.items():
            if key not in merged:
                _fail(f"/budgets/{key}", "unknown budget key")
            merged[key] = read_int(value, f"/budgets/{key}", low=1)
        self.budgets = merged

        measure = doc.get("measure", DEFAULTS["measure"])
        if measure not in ("normalized", "unnormalized", "norm", "unnorm"):
            _fail("/measure", f"expected normalized|unnormalized, got {measure!r}")
        self.measure = "normalized" if measure in ("normalized", "norm") else "unnormalized"

        seed = doc.get("seed", DEFAULTS["seed"])
        self.seed = read_int(seed, "/seed", low=0, high=2**64 - 1)

        if self.p > self.budgets["max_p"]:
            _fail("/p", f"exceeds budgets/max_p = {self.budgets['max_p']}")

        # the field first, so that a refused p is reported at /p
        try:
            self._field = FieldContext(self.p)
        except DomainError as exc:
            _fail("/p", str(exc))
        try:
            self._ext = QuadExtContext(self._field, self.delta_fraction)
        except DomainError as exc:
            _fail("/delta", str(exc))

    @staticmethod
    def _character_spec(spec, pointer, kinds):
        if not isinstance(spec, dict):
            _fail(pointer, f"expected an object, got {spec!r}")
        if "kind" in spec:
            if spec["kind"] not in kinds:
                _fail(f"{pointer}/kind", f"expected one of {kinds}, got {spec['kind']!r}")
            for key in spec:
                if key != "kind":
                    _fail(f"{pointer}/{key}", "unexpected key alongside 'kind'")
            return {"kind": spec["kind"]}
        out = {}
        for key in spec:
            if key not in ("r_pi", "k"):
                _fail(f"{pointer}/{key}", "unknown key (want kind, or r_pi and k)")
        out["r_pi"] = read_fraction(spec.get("r_pi", 0), f"{pointer}/r_pi")
        out["k"] = read_int(spec.get("k", 0), f"{pointer}/k", low=0)
        return out

    @contextmanager
    def scope(self):
        """Make budgets/max_cosets the limit of `charge` in the block."""
        token = _MAX_COSETS.set(self.budgets["max_cosets"])
        try:
            yield
        finally:
            _MAX_COSETS.reset(token)

    # -- contexts --------------------------------------------------------

    def field(self):
        return self._field

    def ext(self):
        return self._ext

    def psi(self):
        return AdditiveCharacter(self.field(), self.psi_conductor)

    def eta(self):
        spec = self._eta_spec
        if spec.get("kind") == "extension":
            return eta_for_extension(self.ext())
        return MultiplicativeCharacter(self.field(), spec["r_pi"], spec["k"])

    def eta_prime(self):
        spec = self._eta_prime_spec
        if spec.get("kind") == "default":
            return eta_prime_default(self.ext(), self.eta())
        return ExtCharacter(self.ext(), spec["r_pi"], spec["k"])

    def check_rank(self, n, pointer="/n"):
        if n > self.budgets["max_n"]:
            _fail(pointer, f"exceeds budgets/max_n = {self.budgets['max_n']}")
        return n
