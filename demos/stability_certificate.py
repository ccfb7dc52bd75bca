"""Validate a configuration and certify drift stability.

Shows the two validation modes (the lax one only needs a finite
buffer; the strict one demands the drift margin) and computes the
Lyapunov witness that makes the strict requirement meaningful.
"""

import numpy as np

from psindex import (ServerParams, SystemConfig, lyapunov_certificate,
                     lyapunov_margin, validate_config)

light = SystemConfig(arrival_p=0.1, buffer=100, servers=(
    ServerParams(q=0.60, cost_c=3.0),
    ServerParams(q=0.45, cost_c=1.0)))

report = validate_config(light)
print(f"lax validation: {'ok' if report.ok else report.violations}")

strict = SystemConfig(arrival_p=0.1, buffer=100,
                      servers=light.servers, strict_stability_mode=True)
report = validate_config(strict)
print(f"strict validation: {'ok' if report.ok else report.violations}")

# The witness (a, b): the exponential drift of sum(exp(a x_i)) is
# negative outside a bounded set with margin b whenever q_min > 2p.
cert = lyapunov_certificate(p=0.1, q_min=0.45)
print(f"\ncertificate: a={cert.a:.6f}, b={cert.b:.6f}")

print("\nmargin profile (negative means the inequality fails there):")
for a in (0.1, 0.25, cert.a, 1.0, 2.0):
    print(f"  a={a:8.6f}: b={lyapunov_margin(0.1, 0.45, a):+.6f}")

# No witness exists once arrivals are too heavy for the slowest server.
print(f"\nheavy traffic (p=0.4, q_min=0.55): "
      f"{lyapunov_certificate(0.4, 0.55)}")

# The margin is concave in a, so its closed-form maximiser
# a = ln(q_min / 2p) / 2 beats every grid point.
grid = np.linspace(0.01, 5.0, 1000)
best_grid = max(lyapunov_margin(0.1, 0.45, float(a)) for a in grid)
print(f"best margin on a 1000-point grid: {best_grid:.9f} "
      f"(certificate: {cert.b:.9f})")
