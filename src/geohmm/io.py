"""Reading and writing model and experience files.

Model files are JSON (UTF-8, key/value with nested arrays). Experience
files are line-oriented text: a header line with the observation vector
length, optionally the alphabet, and unit tags, then one line per time
step holding the observation symbols followed, from the second step on,
by the (dx, dy, dtheta) reading. See the README for the exact schemas.

Angles may be stored in degrees and lengths in mm/cm/m; both are
converted to the canonical internal units (radians, abstract length
units) on load. Files written by this module always use canonical units,
so a load/save round trip is lossless.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .circstats import wrap_angle
from .model import (CoordinateMode, ExperienceSequence, GeoHmm,
                    ModelFormatError, RelationMatrix)

MODEL_FORMAT = "geohmm-model"
MODEL_VERSION = 1

_LENGTH_SCALES = {"units": 1.0, "m": 1.0, "cm": 0.01, "mm": 0.001}
_ANGLE_UNITS = ("radians", "degrees")
_INTEGER_KEYS = ("n_states", "obs_dims", "start_state")


def atomic_write_text(path: str, text: str):
    """Write text to path via a temp file and rename, so readers never
    observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".geohmm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _unit_scales(angle_unit: str, length_unit: str):
    if angle_unit not in _ANGLE_UNITS:
        raise ModelFormatError("unknown angle unit %r" % angle_unit)
    if length_unit not in _LENGTH_SCALES:
        raise ModelFormatError("unknown length unit %r" % length_unit)
    angle_scale = np.pi / 180.0 if angle_unit == "degrees" else 1.0
    return angle_scale, _LENGTH_SCALES[length_unit]


def model_to_dict(model: GeoHmm) -> dict:
    R = model.relations
    rel = np.stack([R.mu_x, R.mu_y, R.mu_theta, R.var_x, R.var_y,
                    R.kappa_theta], axis=-1)
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_states": model.n_states,
        "obs_dims": list(model.obs_dims),
        "start_state": model.start_state,
        "mode": model.mode.value,
        "angle_unit": "radians",
        "length_unit": "units",
        "A": model.A.tolist(),
        "B": [b.tolist() for b in model.B],
        "relations": rel.tolist(),
    }


def model_from_dict(data: dict) -> GeoHmm:
    try:
        if data.get("format") != MODEL_FORMAT:
            raise ModelFormatError("not a %s file" % MODEL_FORMAT)
        angle_scale, length_scale = _unit_scales(
            data.get("angle_unit", "radians"), data.get("length_unit", "units"))
        n, obs_dims, start_state = (data[k] for k in _INTEGER_KEYS)
        for key, values in zip(_INTEGER_KEYS, ([n], obs_dims, [start_state])):
            if not all(type(v) is int for v in values):
                raise ModelFormatError("%s: expected integers, got %r"
                                       % (key, data[key]))
        A = np.asarray(data["A"], dtype=float)
        B = tuple(np.asarray(b, dtype=float) for b in data["B"])
        # The sizes restate A's and B's, so a file must agree with itself.
        if len(A) != n:
            raise ModelFormatError("n_states %d disagrees with A's %d rows"
                                   % (n, len(A)))
        rows = [len(b) for b in B]
        if rows != list(obs_dims):
            raise ModelFormatError("obs_dims %r disagrees with B's row counts "
                                   "%r" % (obs_dims, rows))
        rel = np.asarray(data["relations"], dtype=float)
        if rel.shape != (n, n, 6):
            raise ModelFormatError("relations must be an N x N x 6 array")
        mu_theta = wrap_angle(rel[:, :, 2] * angle_scale)
        np.fill_diagonal(mu_theta, 0.0)
        relations = RelationMatrix(
            rel[:, :, 0] * length_scale, rel[:, :, 1] * length_scale,
            mu_theta, rel[:, :, 3] * length_scale ** 2,
            rel[:, :, 4] * length_scale ** 2, rel[:, :, 5])
        return GeoHmm(A=A, B=B, start_state=start_state, relations=relations,
                      mode=CoordinateMode(data.get("mode", "global")))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("malformed model file: %s" % exc) from exc


def save_model(model: GeoHmm, path: str):
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=1,
                                       sort_keys=True) + "\n")


def load_model(path: str) -> GeoHmm:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError("cannot read model file %s: %s" % (path, exc)) from exc
    return model_from_dict(data)


def save_experience(seq: ExperienceSequence, path: str):
    header = "l=%d" % seq.n_dims
    if seq.alphabet is not None:
        header += " alphabet=" + ",".join(str(k) for k in seq.alphabet)
    lines = ["# geohmm experience file",
             header + " angle_unit=radians length_unit=units"]
    # Python ints and floats from tolist() format faster than NumPy
    # scalars, to the same text.
    readings = [[]] + seq.readings.tolist()
    for symbols, reading in zip(seq.observations.tolist(), readings):
        lines.append(" ".join([str(s) for s in symbols]
                              + [repr(v) for v in reading]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_experience(path: str) -> ExperienceSequence:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ModelFormatError("cannot read experience file %s: %s"
                               % (path, exc)) from exc
    lines = [ln.strip() for ln in raw_lines]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ModelFormatError("empty experience file %s" % path)

    header = dict(item.split("=", 1) for item in lines[0].split()
                  if "=" in item)
    try:
        l = int(header["l"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError("experience header must declare l=<int>") from exc
    alphabet = header.get("alphabet")
    if alphabet is not None:
        try:
            alphabet = tuple(int(k) for k in alphabet.split(","))
        except ValueError as exc:
            raise ModelFormatError("experience header alphabet must be "
                                   "comma-separated integers, got %r"
                                   % header["alphabet"]) from exc
    angle_scale, length_scale = _unit_scales(
        header.get("angle_unit", "radians"), header.get("length_unit", "units"))

    obs, flat = [], []
    for lineno, line in enumerate(lines[1:]):
        tokens = line.split()
        expected = l if lineno == 0 else l + 3
        if len(tokens) != expected:
            raise ModelFormatError(
                "experience line %d: expected %d fields, got %d"
                % (lineno, expected, len(tokens)))
        try:
            obs.append([int(tok) for tok in tokens[:l]])
            flat += [float(tok) for tok in tokens[l:]]
        except ValueError as exc:
            raise ModelFormatError("experience line %d: %s" % (lineno, exc)) from exc
    readings = np.array(flat, dtype=float).reshape(-1, 3)
    readings[:, :2] *= length_scale
    with np.errstate(invalid="ignore"):    # a non-finite heading stays NaN
        readings[:, 2] = wrap_angle(readings[:, 2] * angle_scale)
    try:
        return ExperienceSequence(obs, readings, alphabet)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
