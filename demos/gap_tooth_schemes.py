"""Which macro scheme does a gap-tooth cycle actually implement?

Lift node values to tooth polynomials, evolve each tooth exactly for
dt_micro, average back, extrapolate the chord over dt_macro.  Because
every stage is linear the whole cycle is a matrix, and the matrix tells
the truth:

  * heat + quadratic lifting      -> the classical explicit scheme
  * advection + central lifting   -> an unconditionally unstable scheme
  * advection + upwind lifting    -> stable, first order
  * biharmonic + quadratic lifting-> the identity (nothing evolves!)
"""

import numpy as np

from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    UPWIND_D2,
    MacroState,
    PatchConfig,
    PdeSpec,
    RngStreamSpec,
    ToothConfig,
    convergence_order,
    gap_tooth_step,
    growth_factor_probe,
    seeded_noise_state,
    step_symbol,
)

TWO_PI = 2.0 * np.pi


def make_config(scheme, dx, dt_macro):
    return PatchConfig(
        lifting=scheme,
        tooth=ToothConfig(h=0.2 * dx),
        dt_micro=1e-3 * dt_macro,
        dt_macro=dt_macro,
    )


def matrix_of(pde, cfg, n, dx):
    # the step is circulant: column j is the impulse response rolled by j
    stencil = np.fft.ifft(step_symbol(pde, cfg, n, dx)).real
    return np.column_stack([np.roll(stencil, j) for j in range(n)])


n = 32
dx = TWO_PI / n

print("--- heat equation, central_d2 lifting ---")
dt = 0.4 * dx**2
M = matrix_of(PdeSpec.heat(), make_config(CENTRAL_D2, dx, dt), n, dx)
lam = dt / dx**2
row = M[3]
print(f"lambda = dt/dx^2 = {lam}")
print(f"row stencil around node 3: {row[2]:.4f} {row[3]:.4f} {row[4]:.4f}")
print(f"classical explicit scheme:  {lam:.4f} {1 - 2 * lam:.4f} {lam:.4f}")
print()

print("--- advection at CFL ratio 0.5: lifting choice decides stability ---")
pde = PdeSpec.advection(1.0)
dt = 0.5 * dx
for scheme, name in ((CENTRAL_D2, "central_d2"), (UPWIND_D2, "upwind_d2")):
    cfg = make_config(scheme, dx, dt)
    report = growth_factor_probe(
        lambda u: gap_tooth_step(u, pde, cfg),
        seeded_noise_state(n, dx, RngStreamSpec(7)),
        300,
    )
    amp = np.max(np.abs(step_symbol(pde, cfg, n, dx)[1:]))
    print(f"{name:>10}: growth factor {report.growth_factor:.4f}  ({report.classification}),"
          f" max |G(k)| = {amp:.4f}")
print(f"{'':>10}  von Neumann prediction for the central variant: "
      f"sqrt(1 + 0.25) = {np.sqrt(1.25):.4f}")
print()

print("--- biharmonic u_t = -u_xxxx: quadratic teeth freeze the solution ---")
pde = PdeSpec.biharmonic(1.0)
dt = 0.0375 * dx**4
frozen = matrix_of(pde, make_config(CENTRAL_D2, dx, dt), n, dx)
print(f"max |step matrix - identity| = {np.max(np.abs(frozen - np.eye(n))):.2e}")
moving = matrix_of(pde, make_config(CENTRAL_D4, dx, dt), n, dx)
print(f"with central_d4 teeth the step moves: max |M - I| = "
      f"{np.max(np.abs(moving - np.eye(n))):.2e}")
print()

print("--- measured convergence orders ---")


def study(pde, scheme, courant, power, final_time, exact):
    def make_problem(m):
        dx_m = TWO_PI / m
        cfg = make_config(scheme, dx_m, courant * dx_m**power)
        x = dx_m * np.arange(m)
        return (lambda u: gap_tooth_step(u, pde, cfg)), MacroState(np.sin(x), dx_m)

    return convergence_order(make_problem, (32, 64, 128), final_time, exact)


heat = study(PdeSpec.heat(), CENTRAL_D2, 0.4, 2, 0.5,
             lambda x, t: np.exp(-t) * np.sin(x))
adv = study(PdeSpec.advection(1.0), UPWIND_D2, 0.5, 1, 0.5,
            lambda x, t: np.sin(x - t))
print(f"heat / central_d2:    order {heat.fitted_order:.3f}  errors {heat.errors}")
print(f"advection / upwind:   order {adv.fitted_order:.3f}  errors {adv.errors}")
