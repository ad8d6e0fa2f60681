"""latent-lens: a small melody VAE and the machinery to dissect its latent
space into music and noise neurons."""

__version__ = "0.1.0"
