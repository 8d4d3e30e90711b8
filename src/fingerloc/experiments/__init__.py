"""Experiment harness: config handling and the four study pipelines."""
