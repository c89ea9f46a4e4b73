import numpy as np
import pytest

from nematicfem.fespace import Field, Space, componentwise, embedding_matrix
from nematicfem.mesh import (DomainShape, L_SHAPE, SLIT_SQUARE, UNIT_SQUARE,
                             Mesh, build_initial_mesh)


@pytest.fixture
def unit_square():
    return build_initial_mesh(DomainShape(UNIT_SQUARE))


@pytest.fixture
def lshape():
    return build_initial_mesh(DomainShape(L_SHAPE))


@pytest.fixture
def slit():
    return build_initial_mesh(DomainShape(SLIT_SQUARE))


@pytest.fixture
def single_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def constant_fn(u, v):
    def fn(points):
        out = np.empty((len(points), 2))
        out[:, 0] = u
        out[:, 1] = v
        return out
    return fn


def linear_fn(points):
    return np.stack([points[:, 0], points[:, 1]], axis=1)


def random_field(space: Space, seed: int, scale: float = 1.0) -> Field:
    rng = np.random.default_rng(seed)
    return Field(space, scale * rng.standard_normal(space.ndof))


def embedded(field: Field, dg_space: Space) -> Field:
    """The continuous ``field`` copied into the dG space on its mesh."""
    return Field(dg_space,
                 componentwise(embedding_matrix(dg_space), field.coeffs))
