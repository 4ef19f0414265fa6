from __future__ import annotations

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import memgov.config
from memgov.config import (
    EmbedderConfig,
    PathsConfig,
    PipelineConfig,
    ProviderConfig,
    config_from_dict,
)
from memgov.errors import ConfigError
from memgov.purification import PurificationConfig
from memgov.quality import QcConfig
from memgov.selection import SelectionConfig

SECTIONS = {
    "selection": list(SelectionConfig.__dataclass_fields__),
    "purification": list(PurificationConfig.__dataclass_fields__),
    "qc": list(QcConfig.__dataclass_fields__),
    "embedder": list(EmbedderConfig.__dataclass_fields__),
    "dedup": ["threshold"],
    "paths": list(PathsConfig.__dataclass_fields__),
    "provider": list(ProviderConfig.__dataclass_fields__),
}

# Anything json.loads can return, NaN, infinities and huge integers included.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 2.5, 10**400, "feature-hash-256", "feature-hash-0"])
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def section_values(fields: list[str]):
    return json_values | st.dictionaries(
        st.sampled_from([*fields, "unknown"]), json_values, max_size=len(fields)
    )


configs = st.fixed_dictionaries(
    {},
    optional={
        **{name: section_values(fields) for name, fields in SECTIONS.items()},
        "workers": json_values,
    },
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=configs)
@example(data={"purification": {"anchor_patterns": ["a{4294967296}"]}})
@example(data={"embedder": {"id": "feature-hash-0", "dimension": 0}})
@example(data={"selection": {"lambda_s": 10**400}})
def test_config_from_dict_returns_a_config_or_raises_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, PipelineConfig)


def _first_json_object(text: str) -> dict:
    return json.JSONDecoder().raw_decode(text, text.index("{"))[0]


def test_documented_example_configs_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    for example in (block, memgov.config.__doc__.split("Example:", 1)[1]):
        assert isinstance(config_from_dict(_first_json_object(example)), PipelineConfig)
