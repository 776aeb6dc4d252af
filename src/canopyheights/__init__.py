"""Canopy height estimation: models, losses, data pipeline, and metrics."""

from .tensor import Tensor, backward, grad_check, load_tensor, save_tensor

__all__ = ["Tensor", "backward", "grad_check", "load_tensor", "save_tensor"]
__version__ = "0.1.0"
