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

A layout holds exact Python floats: written with ``json.dump`` and read
back, it gives its source bit for bit.  Each float is rounded once, by
:func:`dumps` as it writes it, to the ``digits`` significant digits the
caller names, so repeated runs produce identical files.  Otherwise the
text is exactly ``json.dumps(obj, sort_keys=True, indent=2)``, written
without the pure-Python encoder that ``json`` falls back to whenever
``indent`` is set.
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


def sig(x: float, digits: int) -> float:
    """Round to ``digits`` significant digits (0.0 stays 0.0)."""
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return x
    return float("%.*g" % (digits, x))


def _entry(v: complex) -> list:
    v = complex(v)
    return [v.real, v.imag]


def matrix_to_json(a) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    r, c = a.shape
    return {
        "rows": r,
        "cols": c,
        "data": [[v.real, v.imag] for v in a.reshape(-1).tolist()],
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


def sequence_to_json(alpha: float, mats) -> dict:
    mats = list(mats)
    q = np.atleast_2d(np.asarray(mats[0])).shape[0] if mats else 0
    return {
        "alpha": float(alpha),
        "q": int(q),
        "s": [matrix_to_json(m) for m in mats],
    }


def sequence_from_json(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """The sequence, its matrices hermitized at ``tol``."""
    mats = tuple(matrix_from_json(m) for m in obj["s"])
    return MomentSequence(float(obj["alpha"]), mats, tol)


def measure_to_json(alpha: float, nodes, weights) -> dict:
    return {
        "alpha": float(alpha),
        "atoms": [
            {"x": float(x), "w": matrix_to_json(w)}
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


def rational_to_json(fun) -> dict:
    """Encode a rational matrix function as numerator coefficient matrices
    over a scalar denominator coefficient list (degree-ascending)."""
    return {
        "num": [matrix_to_json(c) for c in fun.num.coeffs],
        "den": [_entry(c) for c in fun.den],
    }


def rational_from_json(obj: dict) -> RationalMatFun:
    num = MatrixPolynomial(tuple(matrix_from_json(c) for c in obj["num"]))
    den = tuple(_complexes(obj["den"]))
    return RationalMatFun(num, den)


def pair_to_json(pair) -> dict:
    return {
        "alpha": float(pair.alpha),
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


def verification_to_json(report: dict) -> dict:
    """The report of :func:`stieltjesmp.measures.verify_solution`."""
    extracted = report["extracted"]
    return {
        "mode": report["mode"],
        "extracted": sequence_to_json(extracted.alpha, extracted.s),
        "residual": float(report["residual"]),
        "prefix_gap": float(report["prefix_gap"]),
        "prefix_ok": bool(report["prefix_ok"]),
        "top_defect": matrix_to_json(report["top_defect"]),
        "top_margin": float(report["top_margin"]),
        "top_ok": bool(report["top_ok"]),
        "ok": bool(report["ok"]),
    }


def samples_to_json(zs, values) -> list:
    """Matrix values F(z) at grid points z."""
    return [{"z": _entry(z), "F": matrix_to_json(v)}
            for z, v in zip(zs, values)]


def trace_to_json(trace: TransformTrace) -> dict:
    return {
        "input": sequence_to_json(trace.input.alpha, trace.input.s),
        "stages": [[matrix_to_json(x) for x in st] for st in trace.stages],
        "diagonal": [matrix_to_json(x) for x in trace.diagonal],
    }


def blocks_to_json(gen: MatrixPolynomial) -> dict:
    """The four q x q blocks of a 2q x 2q resolvent factor, each with its
    size and coefficient matrices (degree-ascending)."""
    if gen.size % 2:
        raise ValueError("a generator needs an even size")
    q = gen.size // 2
    return {
        name: {"size": q,
               "coeffs": [matrix_to_json(c)
                          for c in gen.coeffs[:, i:i + q, j:j + q]]}
        for name, i, j in (("nw", 0, 0), ("ne", 0, q), ("sw", q, 0),
                           ("se", q, q))
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(o, digits: int) -> str:
    """The text of a str, None, bool, int or float, tested in json's order;
    a float rounded to ``digits`` significant digits."""
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
        text = float.__repr__(sig(o, digits))
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(o, nl: str, out, digits: int) -> None:
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
                text = float.__repr__(sig(v, digits))
                out(_NON_FINITE.get(text, text))
            else:
                _write(v, inner, out, digits)
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
            _write(o[key], inner, out, digits)
        out(nl + "}")
    else:
        out(_scalar(o, digits))


def dumps(obj, digits: int) -> str:
    """Deterministic JSON text: exactly ``json.dumps(obj, sort_keys=True,
    indent=2)`` for every value a layout holds (str-keyed dicts, lists,
    tuples, str, int, bool, None, float), with each float first rounded
    to ``digits`` significant digits (17 keep every double) and NaN and
    Infinity for non-finite ones.  Any other value raises TypeError, as
    in ``json``; so does a dict key that is not a str, which ``json``
    would write as a string but no layout holds."""
    chunks = []
    _write(obj, "\n", chunks.append, digits)
    return "".join(chunks)
