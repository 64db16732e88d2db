//! The minibatch trainer against the per-example reference, bit for bit.
//!
//! [`sgd_train`] must train exactly as the per-example trainer below does:
//! one [`backprop`] per example, each minibatch's gradients summed in
//! example order, the same shuffle and the same momentum update.  Both
//! runs start from one network and one RNG seed and must end with every
//! parameter bit, the returned loss and the RNG stream equal.  The cases
//! cover random ReLU/LeakyReLU MLPs and small CNNs (a conv layer, a max or
//! average pool, a second conv layer whose input gradient training
//! needs, a dense head), batch sizes 1–17 over 1–40 examples (so most
//! epochs end on a partial batch), `only_layer` unset and set to any
//! layer, and both losses.

use prdnn_linalg::Matrix;
use prdnn_nn::{
    backprop, sgd_train, Activation, Conv2dLayer, Layer, Loss, Network, Pool2dLayer, TrainConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The per-example trainer: [`sgd_train`]'s schedule and update with one
/// [`backprop`] per example, every layer's gradient computed and summed
/// in example order.
fn reference_sgd(
    net: &mut Network,
    inputs: &[Vec<f64>],
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut impl Rng,
) -> f64 {
    let mut velocity: Vec<Vec<f64>> = (0..net.num_layers())
        .map(|i| vec![0.0; net.layer(i).num_params()])
        .collect();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut last_epoch_loss = 0.0;
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size.max(1)) {
            let mut batch_grads: Vec<Vec<f64>> = (0..net.num_layers())
                .map(|i| vec![0.0; net.layer(i).num_params()])
                .collect();
            for &idx in batch {
                let (loss, grads) = backprop(net, &inputs[idx], labels[idx], config.loss);
                epoch_loss += loss;
                for (acc, g) in batch_grads.iter_mut().zip(&grads) {
                    for (a, gi) in acc.iter_mut().zip(g) {
                        *a += gi;
                    }
                }
            }
            let scale = 1.0 / batch.len() as f64;
            for layer_idx in 0..net.num_layers() {
                if config.only_layer.is_some_and(|only| only != layer_idx)
                    || batch_grads[layer_idx].is_empty()
                {
                    continue;
                }
                let update: Vec<f64> = batch_grads[layer_idx]
                    .iter()
                    .zip(velocity[layer_idx].iter_mut())
                    .map(|(g, vel)| {
                        *vel = config.momentum * *vel - config.learning_rate * g * scale;
                        *vel
                    })
                    .collect();
                net.layer_mut(layer_idx).add_to_params(&update);
            }
        }
        last_epoch_loss = epoch_loss / inputs.len() as f64;
    }
    last_epoch_loss
}

fn hidden_activation(rng: &mut StdRng) -> Activation {
    if rng.gen_bool(0.5) {
        Activation::Relu
    } else {
        Activation::LeakyRelu {
            alpha: rng.gen_range(0.01..0.5),
        }
    }
}

/// A ReLU or LeakyReLU MLP with one to three hidden layers of width 1–7.
fn random_mlp(rng: &mut StdRng, inputs: usize, classes: usize) -> Network {
    let mut sizes = vec![inputs];
    for _ in 0..rng.gen_range(1..4) {
        sizes.push(rng.gen_range(1..8));
    }
    sizes.push(classes);
    let activation = hidden_activation(rng);
    Network::mlp(&sizes, activation, rng)
}

fn values(rng: &mut StdRng, len: usize, bound: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// A conv layer on `channels × side × side` inputs with random shape.
fn random_conv(rng: &mut StdRng, channels: usize, side: usize) -> Conv2dLayer {
    let padding = rng.gen_range(0..2);
    let kernel = rng.gen_range(1..(side + 2 * padding).min(3) + 1);
    let out_channels = rng.gen_range(1..4);
    Conv2dLayer {
        in_channels: channels,
        in_height: side,
        in_width: side,
        out_channels,
        kernel_h: kernel,
        kernel_w: kernel,
        stride: rng.gen_range(1..3),
        padding,
        weights: values(rng, out_channels * channels * kernel * kernel, 0.6),
        bias: values(rng, out_channels, 0.1),
        activation: hidden_activation(rng),
    }
}

/// conv → max or average pool (windows may overlap) → conv → dense.
fn random_cnn(rng: &mut StdRng, channels: usize, side: usize, classes: usize) -> Network {
    let conv0 = random_conv(rng, channels, side);
    let side0 = conv0.out_height();
    let window = rng.gen_range(1..side0.min(2) + 1);
    let pool = Pool2dLayer {
        channels: conv0.out_channels,
        in_height: side0,
        in_width: side0,
        pool_h: window,
        pool_w: window,
        stride: rng.gen_range(1..3),
    };
    let conv2 = random_conv(rng, pool.channels, pool.out_height());
    let features = conv2.out_channels * conv2.out_height() * conv2.out_width();
    let pool = if rng.gen_bool(0.5) {
        Layer::MaxPool2d(pool)
    } else {
        Layer::AvgPool2d(pool)
    };
    Network::new(vec![
        Layer::Conv2d(conv0),
        pool,
        Layer::Conv2d(conv2),
        Layer::dense(
            Matrix::from_flat(classes, features, values(rng, classes * features, 0.5)),
            values(rng, classes, 0.1),
            Activation::Identity,
        ),
    ])
}

/// Trains one copy of `net` with [`sgd_train`] and one with the
/// reference, from the same RNG seed, on a random dataset and schedule,
/// and requires bit-identical results.
fn check_against_reference(rng: &mut StdRng, net: Network, classes: usize) {
    let count = rng.gen_range(1..41);
    let inputs: Vec<Vec<f64>> = (0..count)
        .map(|_| {
            (0..net.input_dim())
                .map(|_| {
                    if rng.gen_range(0..5) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..count).map(|_| rng.gen_range(0..classes)).collect();
    let config = TrainConfig {
        learning_rate: rng.gen_range(0.005..0.1),
        momentum: if rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen_range(0.0..0.95)
        },
        epochs: rng.gen_range(1..4),
        batch_size: rng.gen_range(1..18),
        loss: if rng.gen_bool(0.5) {
            Loss::SoftmaxCrossEntropy
        } else {
            Loss::MeanSquaredError
        },
        only_layer: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(0..net.num_layers()))
        },
    };
    let seed = rng.next_u64();

    let (mut batched, mut reference) = (net.clone(), net);
    let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let loss_a = sgd_train(&mut batched, &inputs, &labels, &config, &mut rng_a);
    let loss_b = reference_sgd(&mut reference, &inputs, &labels, &config, &mut rng_b);

    assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "{config:?}: loss");
    for (i, (a, b)) in batched.layers().iter().zip(reference.layers()).enumerate() {
        let bits = |l: &Layer| l.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{config:?}: layer {i}");
    }
    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{config:?}: RNG");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mlp_training_matches_the_per_example_reference(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inputs, classes) = (rng.gen_range(1..6), rng.gen_range(2..5));
        let net = random_mlp(&mut rng, inputs, classes);
        check_against_reference(&mut rng, net, classes);
    }

    #[test]
    fn cnn_training_matches_the_per_example_reference(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (channels, side, classes) =
            (rng.gen_range(1..3), rng.gen_range(3..7), rng.gen_range(2..5));
        let net = random_cnn(&mut rng, channels, side, classes);
        check_against_reference(&mut rng, net, classes);
    }
}
