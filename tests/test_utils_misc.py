"""Tests for repro.utils.logging."""

from repro.utils.logging import get_logger


class TestLogging:
    def test_root_logger_name(self):
        assert get_logger().name == "repro"

    def test_child_logger_namespaced(self):
        assert get_logger("learning").name == "repro.learning"

    def test_already_namespaced_not_doubled(self):
        assert get_logger("repro.linalg").name == "repro.linalg"
