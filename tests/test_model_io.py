"""JSON model loading: schema enforcement and error context."""

import json

import numpy as np
import pytest

from wishartscape import (
    FIELD_C,
    FIELD_H,
    FIELD_R,
    ModelFormatError,
    load_model,
    model_from_dict,
    spectrum_from_pauli,
)

GOOD = {
    "total_params": 16,
    "normalization": 0.25,
    "components": [
        {
            "field": "R",
            "dim": 4,
            "index": 2,
            "observable_spectrum": [0.0, 1.0, 2.0, 3.0],
            "input_spectrum": [0.5, 0.3, 0.2, 0.0],
            "sector_params": 10,
        },
        {
            "field": "H",
            "dim": 2,
            "index": 1,
            "observable_spectrum": [-1.0, 1.0],
            "input_spectrum": {"pure": True},
            "sector_params": 6,
        },
    ],
}


def doc(**overrides):
    out = json.loads(json.dumps(GOOD))
    out.update(overrides)
    return out


def comp_doc(**overrides):
    out = doc()
    out["components"][0].update(overrides)
    return out


class TestModelFromDict:
    def test_good_document(self):
        model = model_from_dict(GOOD)
        assert model.total_params == 16
        assert model.normalization == 0.25
        assert [c.field for c in model.components] == [FIELD_R, FIELD_H]
        assert model.components[0].sector_params == 10
        np.testing.assert_array_equal(
            model.components[0].input_spectrum, [0.5, 0.3, 0.2, 0.0])

    def test_pure_input_expanded(self):
        model = model_from_dict(GOOD)
        np.testing.assert_array_equal(model.components[1].input_spectrum, [1.0, 0.0])

    def test_pure_input_trace(self):
        d = doc()
        d["components"][1]["input_spectrum"] = {"pure": True, "trace": 2.5}
        model = model_from_dict(d)
        np.testing.assert_array_equal(model.components[1].input_spectrum, [2.5, 0.0])

    def test_normalization_defaults(self):
        d = doc()
        del d["normalization"]
        assert model_from_dict(d).normalization == 1.0

    def test_sector_params_defaults(self):
        d = doc()
        del d["components"][0]["sector_params"]
        d["total_params"] = 6
        assert model_from_dict(d).components[0].sector_params == 0

    def test_pauli_observable_delegates(self):
        terms = [[1.0, "ZZ"], [0.5, "XI"]]
        d = doc()
        d["components"][0] = {
            "field": "C", "dim": 4, "index": 1,
            "observable_spectrum": {"pauli": terms},
            "input_spectrum": {"pure": True},
            "sector_params": 10,
        }
        model = model_from_dict(d)
        expect = np.sort(spectrum_from_pauli(terms))
        np.testing.assert_allclose(model.components[0].observable_spectrum, expect)

    def test_top_level_type(self):
        with pytest.raises(ModelFormatError, match="top level"):
            model_from_dict([1, 2])

    @pytest.mark.parametrize("missing", ["total_params", "components"])
    def test_missing_top_level_key(self, missing):
        d = doc()
        del d[missing]
        with pytest.raises(ModelFormatError, match=f"missing required key '{missing}'"):
            model_from_dict(d)

    def test_unknown_top_level_key(self):
        with pytest.raises(ModelFormatError, match="unknown top-level keys.*extra"):
            model_from_dict(doc(extra=1))

    @pytest.mark.parametrize("bad", [[], "x", 7])
    def test_components_must_be_nonempty_list(self, bad):
        with pytest.raises(ModelFormatError):
            model_from_dict(doc(components=bad))

    def test_component_must_be_object(self):
        d = doc(components=[3])
        with pytest.raises(ModelFormatError, match="component 0"):
            model_from_dict(d)

    def test_unknown_component_key(self):
        with pytest.raises(ModelFormatError, match="component 0.*unknown keys.*spin"):
            model_from_dict(comp_doc(spin=2))

    @pytest.mark.parametrize("missing", [
        "field", "dim", "index", "observable_spectrum", "input_spectrum",
    ])
    def test_missing_component_key(self, missing):
        d = doc()
        del d["components"][0][missing]
        with pytest.raises(ModelFormatError,
                           match=f"component 0.*missing required key '{missing}'"):
            model_from_dict(d)

    def test_bad_field_symbol(self):
        with pytest.raises(ModelFormatError, match="component 0: field 'field'"):
            model_from_dict(comp_doc(field="Q"))

    @pytest.mark.parametrize("dim", [0, -1, 2.0, "4"])
    def test_bad_dim(self, dim):
        with pytest.raises(ModelFormatError, match="component 0"):
            model_from_dict(comp_doc(dim=dim))

    def test_observable_wrong_object_key(self):
        bad = {"paulis": [[1.0, "Z"]]}
        with pytest.raises(ModelFormatError, match="exactly the key 'pauli'"):
            model_from_dict(comp_doc(observable_spectrum=bad))

    def test_observable_pauli_errors_wrapped(self):
        bad = {"pauli": [[1.0, "QQ"]]}
        with pytest.raises(ModelFormatError, match="component 0.*invalid Pauli letter"):
            model_from_dict(comp_doc(observable_spectrum=bad))

    def test_observable_pauli_dim_mismatch(self):
        bad = {"pauli": [[1.0, "ZZZ"]]}   # 8 eigenvalues, dim 4
        with pytest.raises(ModelFormatError, match="8 eigenvalues but dim is 4"):
            model_from_dict(comp_doc(observable_spectrum=bad))

    def test_observable_not_numeric(self):
        with pytest.raises(ModelFormatError, match="not a numeric array"):
            model_from_dict(comp_doc(observable_spectrum=["a", "b", "c", "d"]))

    def test_observable_wrong_length(self):
        # caught by the component constructor, re-raised with the index
        with pytest.raises(ModelFormatError, match="component 0"):
            model_from_dict(comp_doc(observable_spectrum=[1.0, 2.0]))

    def test_input_object_requires_pure(self):
        with pytest.raises(ModelFormatError, match="'pure': true"):
            model_from_dict(comp_doc(input_spectrum={"pure": False}))

    @pytest.mark.parametrize("pure", ["yes", 1, "true", [True]])
    def test_input_pure_must_be_json_true(self, pure):
        with pytest.raises(ModelFormatError, match="component 0.*'pure': true"):
            model_from_dict(comp_doc(input_spectrum={"pure": pure}))

    @pytest.mark.parametrize("key", ["observable_spectrum", "input_spectrum"])
    def test_nested_spectrum_refused(self, key):
        with pytest.raises(ModelFormatError, match=f"component 0: field '{key}'.*flat list"):
            model_from_dict(comp_doc(**{key: [[0.0, 1.0], [2.0, 3.0]]}))

    @pytest.mark.parametrize("key", ["observable_spectrum", "input_spectrum"])
    @pytest.mark.parametrize("bad", [3.0, "0123", None])
    def test_non_list_spectrum_refused(self, key, bad):
        with pytest.raises(ModelFormatError, match=f"component 0: field '{key}'.*list of numbers"):
            model_from_dict(comp_doc(**{key: bad}))

    def test_input_object_unknown_key(self):
        bad = {"pure": True, "rank": 1}
        with pytest.raises(ModelFormatError, match="unknown keys.*rank"):
            model_from_dict(comp_doc(input_spectrum=bad))

    def test_input_trace_positive(self):
        bad = {"pure": True, "trace": 0.0}
        with pytest.raises(ModelFormatError, match="trace must be positive"):
            model_from_dict(comp_doc(input_spectrum=bad))

    def test_negative_input_weight_wrapped(self):
        with pytest.raises(ModelFormatError, match="component 0"):
            model_from_dict(comp_doc(input_spectrum=[1.0, -0.1, 0.0, 0.0]))

    def test_budget_violation_wrapped_without_component(self):
        d = doc(total_params=3)   # sector params sum to 16
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(d)
        assert err.value.component is None

    def test_error_carries_location_attributes(self):
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(comp_doc(dim=0), path="somewhere.json")
        assert err.value.path == "somewhere.json"
        assert err.value.component == 0
        assert err.value.field == "dim"
        assert str(err.value).startswith("somewhere.json: component 0: field 'dim':")


def pauli_doc(terms):
    out = doc()
    out["components"][1] = {"field": "C", "dim": 4, "index": 1,
                            "observable_spectrum": {"pauli": terms},
                            "input_spectrum": {"pure": True}, "sector_params": 6}
    return out


# (document, exact message, component, field) for the refusals that no
# pattern above spells out in full
EXACT = {
    "components-empty": (doc(components=[]), "'components' must be a nonempty list",
                         None, None),
    "component-int": (doc(components=[3]), "component 0: component must be an object",
                      0, None),
    "field-symbol": (comp_doc(field="Q"), "component 0: field 'field': field symbol must "
                     "be one of 'R', 'C', 'H', got 'Q'", 0, "field"),
    "dim-float": (comp_doc(dim=4.0), "component 0: field 'dim': dim must be a positive "
                  "integer, got 4.0", 0, "dim"),
    "index-string": (comp_doc(index="x"), "component 0: index must be a finite number "
                     ">= 1, got 'x'", 0, None),
    "observable-constant": (comp_doc(observable_spectrum=[2.0] * 4),
                            "component 0: field 'observable_spectrum': observable spectrum "
                            "is constant after zero-shifting; its fluctuation statistics "
                            "are undefined", 0, "observable_spectrum"),
    "pauli-constant": (pauli_doc([[1.0, "II"]]),
                       "component 1: field 'observable_spectrum': observable spectrum "
                       "is constant after zero-shifting; its fluctuation statistics "
                       "are undefined", 1, "observable_spectrum"),
    "pauli-word-length": (pauli_doc([[1.0, "ZZ"], [1.0, "Z"]]),
                          "component 1: field 'observable_spectrum': term 1: word length "
                          "1 differs from 2", 1, "observable_spectrum"),
    "pauli-not-a-list": (pauli_doc(5), "component 1: field 'observable_spectrum': Pauli "
                         "terms must be a list, got 5", 1, "observable_spectrum"),
    "total-params-zero": (doc(total_params=0), "total_params must be a positive integer, "
                          "got 0", None, None),
    "total-params-bool": (doc(total_params=True), "total_params must be a positive "
                          "integer, got True", None, None),
    "total-params-budget": (doc(total_params=3), "sector parameter counts sum to 16, "
                            "exceeding total_params 3", None, None),
    "sector-params-negative": (comp_doc(sector_params=-1), "component 0: sector_params "
                               "must be a nonnegative integer, got -1", 0, None),
    "sector-params-bool": (comp_doc(sector_params=True), "component 0: sector_params "
                           "must be a nonnegative integer, got True", 0, None),
    # counts are JSON integers, as dim is: a whole float is refused at its field
    "total-params-float": (doc(total_params=16.0), "field 'total_params': total_params "
                           "must be a positive integer, got 16.0", None, "total_params"),
    "sector-params-float": (comp_doc(sector_params=10.0), "component 0: field "
                            "'sector_params': sector_params must be a nonnegative "
                            "integer, got 10.0", 0, "sector_params"),
    "sector-params-negative-float": (comp_doc(sector_params=-1.0), "component 0: field "
                                     "'sector_params': sector_params must be a "
                                     "nonnegative integer, got -1.0", 0, "sector_params"),
    # spectrum entries are JSON numbers: true, false, numeric strings and
    # null convert to floats, but are refused at their field
    "observable-booleans": (comp_doc(observable_spectrum=[True, False, True, False]),
                            "component 0: field 'observable_spectrum': entry 0 is True, "
                            "not a JSON number", 0, "observable_spectrum"),
    "observable-numeric-strings": (comp_doc(observable_spectrum=["1", "0.5", "2", "0"]),
                                   "component 0: field 'observable_spectrum': entry 0 is "
                                   "'1', not a JSON number", 0, "observable_spectrum"),
    "observable-null": (comp_doc(observable_spectrum=[0.0, None, 2.0, 3.0]),
                        "component 0: field 'observable_spectrum': entry 1 is None, not a "
                        "JSON number", 0, "observable_spectrum"),
    "input-booleans": (comp_doc(input_spectrum=[True, False, True, False]),
                       "component 0: field 'input_spectrum': entry 0 is True, not a JSON "
                       "number", 0, "input_spectrum"),
    "input-numeric-strings": (comp_doc(input_spectrum=["1", "0.5", "2", "0"]),
                              "component 0: field 'input_spectrum': entry 0 is '1', not a "
                              "JSON number", 0, "input_spectrum"),
    "input-mixed-boolean": (comp_doc(input_spectrum=[0.5, 0.3, True, 0]),
                            "component 0: field 'input_spectrum': entry 2 is True, not a "
                            "JSON number", 0, "input_spectrum"),
}


@pytest.mark.parametrize("case", sorted(EXACT))
def test_exact_message_and_location(case):
    d, message, component, field = EXACT[case]
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(d, path="m.json")
    assert str(err.value) == f"m.json: {message}"
    assert (err.value.path, err.value.component, err.value.field) == \
        ("m.json", component, field)


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(GOOD))
        model = load_model(p)
        assert model.total_params == 16
        assert len(model.components) == 2

    def test_demo_models_load(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1] / "demos" / "models"
        names = sorted(f.name for f in root.glob("*.json"))
        assert names == ["pauli_model.json", "rank1_complex.json", "two_sector.json"]
        for f in root.glob("*.json"):
            model = load_model(f)
            assert model.total_params >= 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read file"):
            load_model(tmp_path / "nope.json")

    def test_directory(self, tmp_path):
        with pytest.raises(ModelFormatError) as err:
            load_model(tmp_path)
        assert isinstance(err.value.__cause__, IsADirectoryError)
        assert str(err.value) == f"{tmp_path}: cannot read file: {err.value.__cause__}"
        assert (err.value.path, err.value.component, err.value.field) == \
            (str(tmp_path), None, None)

    def test_invalid_json_has_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"total_params": 5,\n  "components": [}')
        with pytest.raises(ModelFormatError, match="invalid JSON at line 2, column"):
            load_model(p)

    def test_path_in_message(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc(extra=1)))
        with pytest.raises(ModelFormatError, match="m.json"):
            load_model(p)
