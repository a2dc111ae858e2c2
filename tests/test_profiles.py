import json

import pytest

from eventaug.profiles import (PROFILE_NAMES, profile_perturbation,
                               read_config_file, resolve_config)


class TestProfiles:
    def test_known_names(self):
        assert PROFILE_NAMES == ("kawarith6", "twitter2012", "twitter2018",
                                 "custom")

    def test_kawarith6_defaults(self):
        p = profile_perturbation("kawarith6")
        assert (p.alpha, p.sigma, p.clip_c) == (0.3, 0.01, 0.005)
        assert (p.keep_ratio, p.noise_level) == (0.98, 0.02)

    def test_twitter_profiles(self):
        p12 = profile_perturbation("twitter2012")
        assert (p12.alpha, p12.sigma, p12.clip_c, p12.keep_ratio) == \
            (0.6, 0.1, 0.05, 0.95)
        p18 = profile_perturbation("twitter2018")
        assert (p18.alpha, p18.sigma, p18.clip_c, p18.keep_ratio) == \
            (0.6, 0.1, 0.0006, 0.98)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_perturbation("mystery")


class TestConfigFile:
    def test_typed_parsing(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nprofile = twitter2012\nseed = 9\n"
            "[implicit]\nmethod = FDP\nkeep_ratio = 0.5\n"
            "[train]\nepochs = 33\n"
            "[explicit]\nstrategies = paraphrase, keep-entity\ncopies = 2\n")
        values = read_config_file(path)
        assert values["run"] == {"profile": "twitter2012", "seed": 9}
        assert values["implicit"] == {"method": "FDP", "keep_ratio": 0.5}
        assert values["train"]["epochs"] == 33

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            read_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[implicit]\ngamma = 1\n")
        with pytest.raises(ValueError, match="gamma"):
            read_config_file(path)


class TestResolution:
    def test_profile_then_file_then_cli(self):
        file_values = {"implicit": {"sigma": 0.42},
                       "run": {"profile": "twitter2012"}}
        overrides = {"implicit": {"alpha": 0.9, "sigma": None}}
        config = resolve_config(file_values=file_values, overrides=overrides)
        assert config.profile == "twitter2012"
        assert config.perturbation.sigma == 0.42  # file beats profile (0.1)
        assert config.perturbation.alpha == 0.9  # CLI beats everything
        assert config.perturbation.clip_c == 0.05  # untouched profile value

    def test_none_overrides_are_ignored(self):
        config = resolve_config(profile="kawarith6",
                                overrides={"implicit": {"sigma": None}})
        assert config.perturbation.sigma == 0.01

    def test_explicit_section_flows_to_provider(self):
        config = resolve_config(file_values={"explicit": {
            "strategies": "paraphrase,add-context", "copies": 3,
            "endpoint": "http://example.invalid", "max_tokens": 500}})
        assert config.strategies == ("paraphrase", "add-context")
        assert config.copies == 3
        assert config.provider.max_tokens == 500

    def test_seed_flows_to_split_and_train(self):
        config = resolve_config(overrides={"run": {"seed": 123}})
        assert config.seed == 123
        assert config.split.seed == 123
        assert config.train.seed == 123

    def test_snapshot_is_deterministic(self):
        a = resolve_config(profile="twitter2018").snapshot_json()
        b = resolve_config(profile="twitter2018").snapshot_json()
        assert a == b
        assert '"alpha": 0.6' in a

    def test_train_perturbation_carries_profile(self):
        config = resolve_config(profile="kawarith6")
        assert config.train.perturbation is config.perturbation

    def test_snapshot_resolves_to_equal_config(self):
        config = resolve_config(
            file_values={"run": {"profile": "twitter2012", "out": "o"},
                         "split": {"seed": 9, "train_ratio": 0.6, "val_ratio": 0.2},
                         "implicit": {"method": "FDP", "fdp_mode": "band"},
                         "train": {"epochs": 7}, "fusion": {"layers": 2},
                         "explicit": {"strategies": "paraphrase, keep-entity",
                                      "copies": 2, "auth_env": "SED_TOKEN",
                                      "max_in_flight": 1}},
            overrides={"run": {"seed": 5}})
        snapshot = json.loads(config.snapshot_json())
        run = {"profile": snapshot.pop("profile"), "seed": snapshot.pop("seed"),
               "out": snapshot.pop("out_dir")}
        assert resolve_config(file_values={"run": run, **snapshot}) == config
