"""Spark substrate: applications, executors and the driver model.

The reproduction cannot run Apache Spark itself, so this package models the
pieces of Spark that the paper's scheduler interacts with:

* :mod:`repro.spark.application` — a running application: a benchmark, its
  input size, its executors and its progress;
* :mod:`repro.spark.executor` — an executor process with a heap budget, a
  CPU demand and a set of cached partitions;
* :mod:`repro.spark.driver` — the driver-side dynamic resource allocation
  policy that decides how many executors an application asks for.
"""

from repro.spark.executor import Executor, ExecutorState
from repro.spark.application import ApplicationState, SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = [
    "Executor",
    "ExecutorState",
    "ApplicationState",
    "SparkApplication",
    "DynamicAllocationPolicy",
]
