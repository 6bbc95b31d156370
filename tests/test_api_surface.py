"""The settable surface of the package, pinned.

Every parameter of an exported callable and every flag of a ``ddopt``
subcommand is a setting someone can reach.  A new one changes these pins,
so it shows up as a test diff to review rather than slipping in.
"""

import argparse
import ast
import inspect
import pathlib

import drawdown_options
from drawdown_options.cli import build_parser
from drawdown_options.config import KNOWN_KEYS

EXCEPTION = "exception"

API = {
    "BoundaryCurve": ("grid", "values", "switches", "max_step_error"),
    "BoundarySurface": (
        "s_grid", "y_grid", "values", "kind", "slice_status", "labels",
        "slice_switches", "cap_curve",
    ),
    "CallSolution2D": ("spec",),
    "CallSolution3D": ("spec", "n_s", "n_y"),
    "CoefficientField": ("family", "params"),
    "CoefficientGrid": ("s_grid", "y_grid", "C1", "C2", "active"),
    "ColumnClosure": ("i", "kind", "y_pos", "x_base", "target"),
    "ConfigError": EXCEPTION,
    "ConstraintBreach": EXCEPTION,
    "DomainError": EXCEPTION,
    "ModelSpec": (
        "r", "strike", "payoff_kind", "delta_field", "sigma_field",
        "domain_s_max", "domain_y_max",
    ),
    "NonConvergence": EXCEPTION,
    "NonPositiveCoefficient": EXCEPTION,
    "PutSolution2D": ("spec",),
    "PutSolution3D": ("spec", "n_s", "n_y"),
    "RegionSpec": ("s_grid", "y_grid", "active", "column_closures", "row_closures"),
    "ResolutionWarning": EXCEPTION,
    "RootPair": (
        "gamma1", "gamma2", "dgamma1_ds", "dgamma2_ds", "dgamma1_dy", "dgamma2_dy",
    ),
    "RowClosure": ("j", "kind", "s_pos", "x_base", "target"),
    "RunConfig": ("spec", "s_min", "s_max", "y_max", "n_s", "n_y", "sim", "output_dir"),
    "SimConfig": ("n_paths", "dt", "horizon", "seed", "block_size"),
    "SimResult": ("mean", "stderr", "n_paths", "n_horizon", "mean_stop_time"),
    "StateTriple": ("x", "s", "y"),
    "StepError": EXCEPTION,
    "UnderdeterminedRegion": EXCEPTION,
    "VerificationReport": (
        "mc_mean", "mc_stderr", "analytic_value", "match_gap", "match_threshold",
        "dominance_violations", "dominance_worst_gap", "smooth_fit_gap",
        "generator_sign_violations", "generator_residual_max",
        "perturbation_table", "perturbation_violations", "n_paths",
    ),
    "audit_solution": ("spec", "solution", "dominance_shape"),
    "build_call_surface": ("spec", "s_grid", "y_grid"),
    "build_config": ("pairs",),
    "build_put_surface": ("spec", "s_grid", "y_grid"),
    "call_boundary_2d": ("spec", "s"),
    "call_boundary_slice": ("spec", "s", "y_grid"),
    "detect_switch_points": ("grid", "curve_values", "ref_values", "refine"),
    "eval_fields": ("spec", "s", "y"),
    "generator_residual": ("spec", "f", "point", "dfdx", "d2fdx2"),
    "load_config": ("path",),
    "parse_flat": ("text",),
    "pde_residuals": ("spec", "grid"),
    "put_boundary_2d": ("spec", "s_grid", "shoot_offset"),
    "put_boundary_slice": ("spec", "y", "s_grid"),
    "residual_grids": ("spec", "grid"),
    "roots": ("spec", "s", "y"),
    "roots_arrays": ("spec", "s", "y"),
    "rule_from_solution": ("solution",),
    "simulate_stopped_payoff": ("spec", "start", "rule", "cfg"),
    "simulate_stopped_payoffs": ("spec", "start", "rules", "cfg"),
    "solve_reflection_region": ("spec", "region"),
    "verify_solution": ("spec", "solution", "start", "cfg", "perturb_factors"),
}

CONFIG_KEYS = {
    "r", "strike", "payoff", "delta.family", "delta.params", "sigma.family",
    "sigma.params", "domain.s_max", "domain.y_max",
    "grid.s_min", "grid.s_max", "grid.y_max", "grid.n_s", "grid.n_y",
    "sim.n_paths", "sim.dt", "sim.horizon", "sim.seed", "sim.block_size",
    "output_dir",
}

CLI = {
    "roots": ("--config", "--out"),
    "boundary": ("--config", "--out", "--dim", "--shoot-offset"),
    "value": ("--config", "--out", "--dim", "--x", "--s", "--y"),
    "verify": ("--config", "--out", "--seed", "--perturb", "--x", "--s", "--y"),
    "simulate": ("--config", "--out", "--dim", "--seed", "--x", "--s", "--y"),
}


def _parameters(obj):
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return EXCEPTION
    return tuple(inspect.signature(obj).parameters)


def test_exported_callables_take_the_pinned_parameters():
    got = {name: _parameters(getattr(drawdown_options, name))
           for name in drawdown_options.__all__}
    assert got == API


def test_ddopt_subcommands_take_the_pinned_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: tuple(
            flag
            for action in sp._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for name, sp in sub.choices.items()
    }
    assert got == CLI


def test_config_takes_the_pinned_keys():
    assert KNOWN_KEYS == CONFIG_KEYS


def test_no_handler_swallows_a_solver_error():
    # a solver error reaches the caller as raised: an except clause either
    # ends by raising, or sits in cli.main, which maps errors to exit codes
    package = pathlib.Path(drawdown_options.__file__).parent
    swallowed = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set()
        if path.name == "cli.py":
            main = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main"
            )
            exempt = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ExceptHandler)
                and id(node) not in exempt
                and not isinstance(node.body[-1], ast.Raise)
            ):
                swallowed.append(f"{path.name}:{node.lineno}")
    assert swallowed == []


def test_no_module_level_memo():
    # a caller owns what it builds: the package keeps no functools cache of
    # solutions, curves or any other product of a solve
    package = pathlib.Path(drawdown_options.__file__).parent
    memos = {"lru_cache", "cache"}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = (
                isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name in memos for alias in node.names)
            ) or (
                isinstance(node, ast.Attribute) and node.attr in memos
                and isinstance(node.value, ast.Name) and node.value.id == "functools"
            )
            if named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_slice_set_up_calls_the_march():
    # every boundary ODE runs on solver2d._march_lanes, set up in two
    # places only: the 2D put curve and the 3D slices (surfaces, public
    # slices and direct-line re-marches alike); any other reference to the
    # name, a call or an alias, is a second set-up growing back
    package = pathlib.Path(drawdown_options.__file__).parent
    users = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            named = (
                isinstance(child, ast.Name) and child.id == "_march_lanes"
                or isinstance(child, ast.Attribute) and child.attr == "_march_lanes"
            )
            if named:
                users.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, f"{where.split('.')[0]}.{child.name}" if inner else where)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<module>")
    assert users == ["solver2d.put_boundary_2d", "solver3d._march_slices"]


def test_only_the_cubic_evaluator_fits_a_spline():
    # scipy fits every cubic spline, in solver2d._Cubic's constructor, and
    # the package evaluates it; any other reference to CubicSpline, or a
    # scipy.interpolate import outside solver2d, is a query path drifting
    # back to scipy's call and its fixed cost on every float
    package = pathlib.Path(drawdown_options.__file__).parent
    users, importers = [], []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            named = (
                isinstance(child, ast.Name) and child.id == "CubicSpline"
                or isinstance(child, ast.Attribute) and child.attr == "CubicSpline"
            )
            if named:
                users.append(where)
            imports = (
                isinstance(child, ast.ImportFrom) and (
                    (child.module or "").startswith("scipy.interpolate")
                    or child.module == "scipy"
                    and any(a.name == "interpolate" for a in child.names)
                )
                or isinstance(child, ast.Import)
                and any(a.name.startswith("scipy.interpolate") for a in child.names)
            )
            if imports:
                importers.append(where.split(".")[0])
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{where}.{child.name}" if inner else where)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert users == ["solver2d._Cubic.__init__"]
    assert importers == ["solver2d"]


def test_one_bracket_caller_and_one_root_quadratic():
    # the boundary ODE's two brackets are read by OdeStage.__call__ alone,
    # on arrays or on one float lane, and the root quadratic's square root
    # of m * m + 2.0 * r / sig2 is written once, in coefficients._root_pair;
    # a stage or a root formula written a second time (a scalar twin) shows
    # up as another reference
    package = pathlib.Path(drawdown_options.__file__).parent
    quadratic = ast.dump(ast.parse("m * m + 2.0 * r / sig2", mode="eval").body)
    brackets, roots = [], []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            named = (
                isinstance(child, ast.Name) and child.id in ("_bracket", "_scalar_bracket")
                or isinstance(child, ast.Attribute)
                and child.attr in ("_bracket", "_scalar_bracket")
            )
            if named:
                brackets.append(where)
            if ast.dump(child) == quadratic:
                roots.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{where}.{child.name}" if inner else where)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert set(brackets) == {"solver2d.OdeStage.__call__"}
    assert roots == ["coefficients._root_pair"]


def _references(name):
    """Where the package reads name, as "module.Qualified.scope" entries in walk order."""
    package = pathlib.Path(drawdown_options.__file__).parent
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{where}.{child.name}" if inner else where)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_roots_arrays_is_called_only_where_all_four_partials_are_read():
    # roots_arrays evaluates both roots with all four partials; a solver
    # path reads the pair, or one axis's partials, through _roots_along,
    # and only the public roots, the residual check and ddopt roots, which
    # report all six, call roots_arrays
    assert set(_references("roots_arrays")) == {
        "coefficients.roots", "reflection_pde.residual_grids", "cli.cmd_roots",
    }


def test_every_error_cli_main_maps_is_raised_by_the_package():
    # an exit code for an error that no module outside errors, __init__ and
    # cli names is a handler for what nothing raises
    package = pathlib.Path(drawdown_options.__file__).parent
    cli = ast.parse((package / "cli.py").read_text())
    main = next(
        node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = set()
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.id for t in types}
    ours = caught & set(vars(drawdown_options.errors))
    named = set()
    for path in sorted(package.glob("*.py")):
        if path.stem not in ("errors", "__init__", "cli"):
            tree = ast.parse(path.read_text(), filename=str(path))
            named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert ours and ours <= named, sorted(ours - named)
