"""Every JSON layout of the package: what the CLI reads and prints.

Matrices travel as {"rows": r, "cols": c, "data": [...]} with the data
row-major; every entry is a [re, im] pair.  On that base:

  sequence   {"alpha", "q", "s": [matrix]}            MomentSequence
  measure    {"alpha", "atoms": [{"x", "w": matrix}]}  DiscreteMeasure
  rational   {"num": [matrix], "den": [[re, im]]}      RationalMatFun,
             coefficients degree-ascending
  pair       {"alpha", "phi": rational, "psi": rational}  StieltjesPair
  report     {"q", "m", "Hgg", "Kgg", "Kgg_strict", "D", "Kggd",
              "Kgge_candidate", "rank_top"}            ClassReport
  verification  {"mode", "extracted": sequence, "residual", "prefix_gap",
             "prefix_ok", "top_defect": matrix, "top_margin", "top_ok", "ok"}
  samples    [{"z": [re, im], "F": matrix}]           values on a grid
  trace      {"input": sequence, "stages": [[matrix]], "diagonal": [matrix]}
  blocks     {"nw", "ne", "sw", "se"}, each {"size", "coeffs": [matrix]}

Floats are rounded to ``digits`` significant digits on output, 15 unless
the caller asks for fewer, so repeated runs produce identical files.  A
layout's output is final: it is printed as it is, not rounded again.
:func:`dumps` writes it as text, exactly ``json.dumps(obj, sort_keys=True,
indent=2)``, without the pure-Python encoder that ``json`` falls back to
whenever ``indent`` is set.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .hankel import ClassReport, MomentSequence
from .matcore import DEFAULT_TOL, ToleranceConfig
from .measures import DiscreteMeasure
from .pairs import RationalMatFun, StieltjesPair
from .respoly import MatrixPolynomial
from .schur import TransformTrace

__all__ = [
    "sig",
    "matrix_to_json",
    "matrix_from_json",
    "sequence_to_json",
    "sequence_from_json",
    "measure_to_json",
    "measure_from_json",
    "rational_to_json",
    "rational_from_json",
    "pair_to_json",
    "pair_from_json",
    "report_to_json",
    "verification_to_json",
    "samples_to_json",
    "trace_to_json",
    "blocks_to_json",
    "dumps",
]


def sig(x: float, digits: int = 15) -> float:
    """Round to ``digits`` significant digits (0.0 stays 0.0)."""
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return x
    return float("%.*g" % (digits, x))


def _entry(v: complex, digits: int = 15) -> list:
    v = complex(v)
    return [sig(v.real, digits), sig(v.imag, digits)]


def matrix_to_json(a, digits: int = 15) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    r, c = a.shape
    return {
        "rows": r,
        "cols": c,
        "data": [[sig(v.real, digits), sig(v.imag, digits)]
                 for v in a.reshape(-1).tolist()],
    }


def _complexes(entries) -> list:
    """complex(re, im) of each [re, im] pair, refusing any other entry."""
    try:
        return [complex(re, im) for re, im in entries]
    except ValueError:
        raise ValueError("an entry is not a [re, im] pair") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    r, c = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != r * c:
        raise ValueError("matrix data length does not match rows*cols")
    return np.array(_complexes(data), dtype=complex).reshape(r, c)


def sequence_to_json(alpha: float, mats, digits: int = 15) -> dict:
    mats = list(mats)
    q = np.atleast_2d(np.asarray(mats[0])).shape[0] if mats else 0
    return {
        "alpha": sig(alpha, digits),
        "q": int(q),
        "s": [matrix_to_json(m, digits) for m in mats],
    }


def sequence_from_json(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """The sequence, its matrices hermitized at ``tol``."""
    mats = tuple(matrix_from_json(m) for m in obj["s"])
    return MomentSequence(float(obj["alpha"]), mats, tol)


def measure_to_json(alpha: float, nodes, weights, digits: int = 15) -> dict:
    return {
        "alpha": sig(alpha, digits),
        "atoms": [
            {"x": sig(float(x), digits), "w": matrix_to_json(w, digits)}
            for x, w in zip(nodes, weights)
        ],
    }


def measure_from_json(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> DiscreteMeasure:
    """The measure, its weights hermitized and PSD-tested at ``tol``."""
    if not obj["atoms"]:
        # the library's zero measure has q = 0; a file must name its size
        raise ValueError("a measure needs at least one atom to fix q")
    nodes = tuple(float(atom["x"]) for atom in obj["atoms"])
    weights = tuple(matrix_from_json(atom["w"]) for atom in obj["atoms"])
    return DiscreteMeasure(float(obj["alpha"]), nodes, weights, tol)


def rational_to_json(fun, digits: int = 15) -> dict:
    """Encode a rational matrix function as numerator coefficient matrices
    over a scalar denominator coefficient list (degree-ascending)."""
    return {
        "num": [matrix_to_json(c, digits) for c in fun.num.coeffs],
        "den": [_entry(c, digits) for c in fun.den],
    }


def rational_from_json(obj: dict) -> RationalMatFun:
    num = MatrixPolynomial(tuple(matrix_from_json(c) for c in obj["num"]))
    den = tuple(_complexes(obj["den"]))
    return RationalMatFun(num, den)


def pair_to_json(pair) -> dict:
    return {
        "alpha": sig(pair.alpha),
        "phi": rational_to_json(pair.phi),
        "psi": rational_to_json(pair.psi),
    }


def pair_from_json(obj: dict) -> StieltjesPair:
    alpha = float(obj["alpha"])
    return StieltjesPair(alpha, rational_from_json(obj["phi"]),
                         rational_from_json(obj["psi"]))


def report_to_json(rep: ClassReport) -> dict:
    """The verdicts of a classification; its ``trace`` is not written."""
    return {
        "q": int(rep.q),
        "m": int(rep.m),
        "Hgg": bool(rep.hankel_psd),
        "Kgg": bool(rep.stieltjes_psd),
        "Kgg_strict": bool(rep.stieltjes_pd),
        "D": bool(rep.first_term_dominant),
        "Kggd": bool(rep.completely_degenerate),
        "Kgge_candidate": rep.extendable_candidate,
        "rank_top": int(rep.rank_top),
    }


def verification_to_json(report: dict, digits: int = 15) -> dict:
    """The report of :func:`stieltjesmp.measures.verify_solution`."""
    extracted = report["extracted"]
    return {
        "mode": report["mode"],
        "extracted": sequence_to_json(extracted.alpha, extracted.s, digits),
        "residual": sig(report["residual"], digits),
        "prefix_gap": sig(report["prefix_gap"], digits),
        "prefix_ok": bool(report["prefix_ok"]),
        "top_defect": matrix_to_json(report["top_defect"], digits),
        "top_margin": sig(report["top_margin"], digits),
        "top_ok": bool(report["top_ok"]),
        "ok": bool(report["ok"]),
    }


def samples_to_json(zs, values, digits: int = 15) -> list:
    """Matrix values F(z) at grid points z."""
    return [{"z": _entry(z, digits), "F": matrix_to_json(v, digits)}
            for z, v in zip(zs, values)]


def trace_to_json(trace: TransformTrace, digits: int = 15) -> dict:
    return {
        "input": sequence_to_json(trace.input.alpha, trace.input.s, digits),
        "stages": [[matrix_to_json(x, digits) for x in st]
                   for st in trace.stages],
        "diagonal": [matrix_to_json(x, digits) for x in trace.diagonal],
    }


def blocks_to_json(gen: MatrixPolynomial, digits: int = 15) -> dict:
    """The four q x q blocks of a 2q x 2q resolvent factor, each with its
    size and coefficient matrices (degree-ascending)."""
    if gen.size % 2:
        raise ValueError("a generator needs an even size")
    q = gen.size // 2
    return {
        name: {"size": q,
               "coeffs": [matrix_to_json(c, digits)
                          for c in gen.coeffs[:, i:i + q, j:j + q]]}
        for name, i, j in (("nw", 0, 0), ("ne", 0, q), ("sw", q, 0),
                           ("se", q, q))
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(o) -> str:
    """The text of a str, None, bool, int or float, tested in json's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(o, nl: str, out) -> None:
    """Append the text of ``o`` to ``out``; ``nl`` opens a line at its depth."""
    if isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out(sep)
            sep = "," + inner
            if type(v) is float:  # matrix entries, most of every layout
                text = float.__repr__(v)
                out(_NON_FINITE.get(text, text))
            else:
                _write(v, inner, out)
        out(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            # encode_basestring_ascii raises TypeError for a key not a str
            out(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _write(o[key], inner, out)
        out(nl + "}")
    else:
        out(_scalar(o))


def dumps(obj) -> str:
    """Deterministic JSON text: exactly ``json.dumps(obj, sort_keys=True,
    indent=2)`` for every value a layout holds (str-keyed dicts, lists,
    tuples, str, int, bool, None, float), with NaN and Infinity for
    non-finite floats.  Any other value raises TypeError, as in ``json``;
    so does a dict key that is not a str, which ``json`` would write as a
    string but no layout holds."""
    chunks = []
    _write(obj, "\n", chunks.append)
    return "".join(chunks)
