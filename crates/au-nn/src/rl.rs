//! Q-learning support (the paper's `Q` algorithm in Fig. 8).
//!
//! The Autonomizer runtime trains reinforcement-learning models online while
//! the program executes: each `au_NN` call in TR mode delivers the current
//! feature vector plus the reward/terminal signals, and receives the next
//! action. [`DqnAgent`] implements the standard deep-Q-network recipe used by
//! the paper's baselines — ε-greedy exploration, an experience replay buffer,
//! and a periodically synchronized target network.

use crate::network::Network;
use crate::optim::Adam;
use crate::tensor::{Rows, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod replay;

pub use replay::ReplayBuffer;

/// One step of experience `(s, a, r, s', terminal)`, borrowed from the
/// caller or from a [`ReplayBuffer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition<'a> {
    /// State (feature vector) before the action.
    pub state: &'a [f32],
    /// Index of the action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// State after the action.
    pub next_state: &'a [f32],
    /// Whether the episode ended at `next_state`.
    pub terminal: bool,
}

/// Hyperparameters for [`DqnAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// Initial exploration rate.
    pub epsilon_start: f32,
    /// Final exploration rate.
    pub epsilon_end: f32,
    /// Multiplicative ε decay applied per learning step.
    pub epsilon_decay: f32,
    /// Mini-batch size sampled from the replay buffer.
    pub batch_size: usize,
    /// Learning steps between target-network syncs (0 disables the target
    /// network — an ablation axis).
    pub target_sync_every: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Replay-buffer capacity. Must be at least `batch_size` for learning
    /// to start; a capacity barely above `batch_size` approximates
    /// no-replay (the other ablation axis).
    pub replay_capacity: usize,
    /// Hidden layer sizes of the Q-network.
    pub hidden: Vec<usize>,
    /// RNG seed for exploration and sampling.
    pub seed: u64,
    /// Learn only every N observed transitions (1 = every step). Larger
    /// values trade sample efficiency for wall-clock speed.
    pub learn_every: usize,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            gamma: 0.97,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay: 0.995,
            batch_size: 32,
            target_sync_every: 100,
            learning_rate: 1e-3,
            replay_capacity: 10_000,
            // The paper's Mario model: two hidden layers of 256 and 64.
            hidden: vec![256, 64],
            seed: 0xA0_70_70,
            learn_every: 1,
        }
    }
}

/// A deep-Q-network agent over flat feature vectors.
#[derive(Debug)]
pub struct DqnAgent {
    online: Network,
    target: Option<Network>,
    opt: Adam,
    buffer: ReplayBuffer,
    config: DqnConfig,
    epsilon: f32,
    learn_steps: usize,
    observed: usize,
    state_dim: usize,
    n_actions: usize,
    rng: StdRng,
}

impl DqnAgent {
    /// Creates an agent for `state_dim` features and `n_actions` discrete
    /// actions with a fully connected Q-network.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `n_actions` is zero.
    pub fn new(state_dim: usize, n_actions: usize, config: DqnConfig) -> Self {
        assert!(state_dim > 0, "state_dim must be positive");
        assert!(n_actions > 0, "n_actions must be positive");
        let online = crate::network::dnn(state_dim, &config.hidden, n_actions);
        let target = if config.target_sync_every > 0 {
            let mut t = crate::network::dnn(state_dim, &config.hidden, n_actions);
            // target starts as a copy of online
            t.copy_weights_from(&online);
            Some(t)
        } else {
            None
        };
        let rng = StdRng::seed_from_u64(config.seed);
        DqnAgent {
            online,
            target,
            opt: Adam::new(config.learning_rate),
            buffer: ReplayBuffer::new(config.replay_capacity, state_dim),
            epsilon: config.epsilon_start,
            learn_steps: 0,
            observed: 0,
            state_dim,
            n_actions,
            config,
            rng,
        }
    }

    /// Creates an agent whose Q-network is the caller-supplied `network`
    /// (e.g. a convolutional pixel network for the paper's Raw baseline).
    ///
    /// # Panics
    ///
    /// Panics if the network's shape disagrees with `state_dim`/`n_actions`.
    pub fn with_network(
        state_dim: usize,
        n_actions: usize,
        config: DqnConfig,
        network: Network,
    ) -> Self {
        assert_eq!(network.in_features(), state_dim, "network input mismatch");
        assert_eq!(network.out_features(), n_actions, "network output mismatch");
        let target = (config.target_sync_every > 0).then(|| network.deep_clone());
        let rng = StdRng::seed_from_u64(config.seed);
        DqnAgent {
            online: network,
            target,
            opt: Adam::new(config.learning_rate),
            buffer: ReplayBuffer::new(config.replay_capacity, state_dim),
            epsilon: config.epsilon_start,
            learn_steps: 0,
            observed: 0,
            state_dim,
            n_actions,
            config,
            rng,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Number of discrete actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Expected state feature count.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// The online Q-network — enough for persistence (`to_json`) and
    /// concurrent inference ([`Network::infer`]) through `&self`.
    pub fn network(&self) -> &Network {
        &self.online
    }

    /// Greedy (exploitation-only) action — used in TS/deployment mode.
    /// Reads `state` in place as a one-row batch.
    pub fn greedy_action(&self, state: &[f32]) -> usize {
        let q = self.online.infer(Rows::new(1, state.len(), state));
        q.argmax_row(0)
    }

    /// ε-greedy action — used in TR/training mode.
    pub fn select_action(&mut self, state: &[f32]) -> usize {
        if self.rng.gen::<f32>() < self.epsilon {
            self.rng.gen_range(0..self.n_actions)
        } else {
            self.greedy_action(state)
        }
    }

    /// Records a transition and performs one learning step when enough
    /// experience is available. Returns the TD loss if a step ran.
    ///
    /// # Panics
    ///
    /// Panics if the action is out of range or a state's length is not
    /// [`DqnAgent::state_dim`].
    pub fn observe(&mut self, t: Transition<'_>) -> Option<f32> {
        assert!(
            t.action < self.n_actions,
            "action {} out of range",
            t.action
        );
        self.buffer.push(t);
        self.observed += 1;
        if self.buffer.len() < self.config.batch_size {
            return None;
        }
        if !self.observed.is_multiple_of(self.config.learn_every.max(1)) {
            return None;
        }
        Some(self.learn())
    }

    fn learn(&mut self) -> f32 {
        let batch_size = self.config.batch_size;
        let sampled = self.buffer.sample(batch_size, &mut self.rng);

        // Gather the sampled rows straight from the replay ring into the
        // state and next-state batches.
        let mut states = Tensor::zeros(&[batch_size, self.state_dim]);
        let mut next_states = Tensor::zeros(&[batch_size, self.state_dim]);
        for (i, t) in sampled.iter().enumerate() {
            states.data_mut()[i * self.state_dim..(i + 1) * self.state_dim]
                .copy_from_slice(t.state);
            next_states.data_mut()[i * self.state_dim..(i + 1) * self.state_dim]
                .copy_from_slice(t.next_state);
        }

        // Bootstrap targets from the target network (or online, if disabled).
        let next_q = self
            .target
            .as_ref()
            .unwrap_or(&self.online)
            .infer(&next_states);
        // Q(s,·) comes from the one training forward of `train_step`.
        let loss = self.online.train_step(&states, &mut self.opt, |q| {
            let mut grad = Tensor::zeros(q.shape());
            let mut loss = 0.0f32;
            for (i, t) in sampled.iter().enumerate() {
                let max_next = (0..self.n_actions)
                    .map(|a| next_q.row_slice(i)[a])
                    .fold(f32::NEG_INFINITY, f32::max);
                let target_value = if t.terminal {
                    t.reward
                } else {
                    t.reward + self.config.gamma * max_next
                };
                let predicted = q.row_slice(i)[t.action];
                let d = predicted - target_value;
                // Huber loss on the taken action's output only.
                loss += if d.abs() <= 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                };
                grad.data_mut()[i * self.n_actions + t.action] =
                    d.clamp(-1.0, 1.0) / batch_size as f32;
            }
            (grad, loss)
        });

        self.learn_steps += 1;
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(self.config.epsilon_end);
        if let Some(target) = &mut self.target {
            if self.config.target_sync_every > 0
                && self
                    .learn_steps
                    .is_multiple_of(self.config.target_sync_every)
            {
                target.copy_weights_from(&self.online);
            }
        }
        loss / batch_size as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_config() -> DqnConfig {
        DqnConfig {
            hidden: vec![16],
            batch_size: 8,
            replay_capacity: 256,
            target_sync_every: 20,
            epsilon_decay: 0.97,
            learning_rate: 5e-3,
            seed: 1,
            ..DqnConfig::default()
        }
    }

    #[test]
    fn epsilon_decays_toward_floor() {
        crate::init::set_init_seed(2);
        let mut agent = DqnAgent::new(1, 2, two_state_config());
        for _ in 0..500 {
            agent.observe(Transition {
                state: &[0.0],
                action: 0,
                reward: 0.0,
                next_state: &[0.0],
                terminal: true,
            });
        }
        assert!((agent.epsilon() - agent.config.epsilon_end).abs() < 1e-3);
    }

    #[test]
    fn learns_trivial_bandit() {
        // Single state, two actions: action 1 pays +1, action 0 pays -1.
        crate::init::set_init_seed(5);
        let mut agent = DqnAgent::new(1, 2, two_state_config());
        for _ in 0..400 {
            let a = agent.select_action(&[1.0]);
            let r = if a == 1 { 1.0 } else { -1.0 };
            agent.observe(Transition {
                state: &[1.0],
                action: a,
                reward: r,
                next_state: &[1.0],
                terminal: true,
            });
        }
        assert_eq!(agent.greedy_action(&[1.0]), 1);
        let q = agent.network().infer(&Tensor::row(&[1.0])).into_vec();
        assert!(q[1] > q[0], "Q(s,1)={} should exceed Q(s,0)={}", q[1], q[0]);
    }

    #[test]
    fn learns_two_step_credit_assignment() {
        // States 0 -> (action 1) -> state 1 -> (action 1) -> +1 terminal.
        // Any action 0 terminates with 0 reward. Optimal policy: always 1.
        crate::init::set_init_seed(6);
        let mut cfg = two_state_config();
        cfg.gamma = 0.9;
        let mut agent = DqnAgent::new(2, 2, cfg);
        let s0 = [1.0, 0.0];
        let s1 = [0.0, 1.0];
        for _ in 0..600 {
            let a0 = agent.select_action(&s0);
            if a0 == 0 {
                agent.observe(Transition {
                    state: &s0,
                    action: 0,
                    reward: 0.0,
                    next_state: &s0,
                    terminal: true,
                });
                continue;
            }
            agent.observe(Transition {
                state: &s0,
                action: 1,
                reward: 0.0,
                next_state: &s1,
                terminal: false,
            });
            let a1 = agent.select_action(&s1);
            let r = if a1 == 1 { 1.0 } else { 0.0 };
            agent.observe(Transition {
                state: &s1,
                action: a1,
                reward: r,
                next_state: &s1,
                terminal: true,
            });
        }
        assert_eq!(agent.greedy_action(&s1), 1);
        assert_eq!(
            agent.greedy_action(&s0),
            1,
            "reward propagates one step back"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_bad_action() {
        let mut agent = DqnAgent::new(1, 2, two_state_config());
        agent.observe(Transition {
            state: &[0.0],
            action: 7,
            reward: 0.0,
            next_state: &[0.0],
            terminal: true,
        });
    }

    #[test]
    #[should_panic(expected = "next state size mismatch")]
    fn observe_rejects_wrong_state_size() {
        let mut agent = DqnAgent::new(2, 2, two_state_config());
        agent.observe(Transition {
            state: &[0.0, 1.0],
            action: 0,
            reward: 0.0,
            next_state: &[0.0],
            terminal: true,
        });
    }

    #[test]
    fn target_network_can_be_disabled() {
        let cfg = DqnConfig {
            target_sync_every: 0,
            hidden: vec![8],
            batch_size: 4,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(1, 2, cfg);
        assert!(agent.target.is_none());
        for _ in 0..10 {
            agent.observe(Transition {
                state: &[0.5],
                action: 0,
                reward: 1.0,
                next_state: &[0.5],
                terminal: false,
            });
        }
    }
}
