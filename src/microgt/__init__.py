"""microgt: reduced-order analysis toolkit for silicon micro gas turbine engines."""
