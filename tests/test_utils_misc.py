"""Tests for repro.utils.logging."""

import logging

from repro.utils.logging import get_logger, set_verbosity


class TestLogging:
    def test_root_logger_name(self):
        assert get_logger().name == "repro"

    def test_child_logger_namespaced(self):
        assert get_logger("learning").name == "repro.learning"

    def test_already_namespaced_not_doubled(self):
        assert get_logger("repro.linalg").name == "repro.linalg"

    def test_set_verbosity_toggles_level(self):
        set_verbosity(True)
        assert get_logger().level == logging.INFO
        set_verbosity(False)
        assert get_logger().level == logging.WARNING
