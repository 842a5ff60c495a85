"""Intersection cuts for submodular and submodular-supermodular objectives.

The pipeline: oracles evaluate set functions and their convex extension
in closed form, sfree turns the extension (less a linear term for reverse
linearizations) and splits into free sets,
simplex supplies LP optima with corner relaxations, cuts turns corner +
free set into valid inequalities, models builds the lifted LPs, and
harness runs the root-node experiments.
"""

from .cuts import IntersectionCut, intersection_cut, newton_steps, step_length
from .errors import CapacityError, ModelError, NumericError
from .harness import RootNodeReport, RunConfig, root_loop, run_instance
from .models import BmpInstance, LiftMap, build_model
from .oracles import Graph, MultilinearFunction, SSFunction, cut_polynomial, envelope_eval, ss_decompose
from .sfree import EnvelopeEpigraph, LiftedSplit, build_reverse_linearized
from .simplex import LpModel, LpSolution, corner, solve

__version__ = "0.1.0"

__all__ = [
    "BmpInstance",
    "CapacityError",
    "EnvelopeEpigraph",
    "Graph",
    "IntersectionCut",
    "LiftMap",
    "LiftedSplit",
    "LpModel",
    "LpSolution",
    "ModelError",
    "MultilinearFunction",
    "NumericError",
    "RootNodeReport",
    "RunConfig",
    "SSFunction",
    "build_model",
    "build_reverse_linearized",
    "corner",
    "cut_polynomial",
    "envelope_eval",
    "intersection_cut",
    "newton_steps",
    "root_loop",
    "run_instance",
    "solve",
    "ss_decompose",
    "step_length",
]
