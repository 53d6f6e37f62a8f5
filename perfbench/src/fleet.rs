//! Fleet members sampled from the seed, expanded with the public
//! generator so each keeps its ground truth.

use crate::rng::Rng;
use spex_check::StaticEnv;
use spex_conf::Dialect;
use spex_systems::spec::{MappingStyle, ParamSpec, Role, SystemSpec};
use spex_systems::GenOutput;

/// One fleet member: its spec and everything the generator produced.
pub struct Member {
    pub name: String,
    pub spec: SystemSpec,
    pub gen: GenOutput,
}

impl Member {
    /// The parameter-name prefix unique to this member.
    pub fn prefix(&self) -> &str {
        self.name.trim_end_matches(".c")
    }
}

/// Samples `modules` members. Member `i` is the same for every fleet size
/// with the same seed, so a smaller fleet is a prefix of a larger one.
pub fn sample(seed: u64, modules: usize) -> Vec<Member> {
    let mut rng = Rng::new(seed ^ 0x5eed_f1ee);
    (0..modules)
        .map(|i| {
            let spec = member_spec(i, &mut rng);
            let gen = spex_systems::generate(&spec);
            Member {
                name: format!("m{i:04}.c"),
                spec,
                gen,
            }
        })
        .collect()
}

/// A member's parameter population: 5–9 parameters drawn from the same
/// role mix as the program's own fleet generator (ranges, files, ports,
/// times, sizes, booleans, switches and dependents on a boolean).
fn member_spec(index: usize, rng: &mut Rng) -> SystemSpec {
    let n = rng.range(5, 10) as usize;
    let mut params = Vec::with_capacity(n);
    let mut controller: Option<String> = None;
    for p in 0..n {
        let name = format!("m{index:04}_p{p}");
        let role = match rng.range(0, 10) {
            0 => Role::Arith,
            1 => {
                let min = rng.range(0, 8);
                Role::RangeTable {
                    min,
                    max: min + rng.range(8, 4096),
                }
            }
            2 => {
                let min = rng.range(1, 16);
                Role::RangeExit {
                    min,
                    max: min + rng.range(16, 1024),
                    log: rng.coin(),
                }
            }
            3 => Role::File {
                checked: true,
                log: rng.coin(),
            },
            4 => Role::Port {
                checked: rng.coin(),
                log: true,
            },
            5 => Role::TimeSleep {
                scale: [1, 1000][rng.below(2)],
                micro: rng.coin(),
            },
            6 => Role::SizeAlloc {
                scale: [1, 1024][rng.below(2)],
                checked: true,
            },
            7 => {
                controller.get_or_insert_with(|| name.clone());
                Role::BoolFlag { strict: rng.coin() }
            }
            8 => Role::Switch {
                n: rng.range(2, 6),
                loud_default: rng.coin(),
            },
            _ => match &controller {
                Some(c) => Role::DependentOn {
                    controller: c.clone(),
                },
                None => Role::Arith,
            },
        };
        params.push(ParamSpec::new(name, role));
    }
    SystemSpec {
        name: "Fleet",
        mapping: MappingStyle::StructDirect,
        dialect: Dialect::KeyValue,
        safe_dispatcher: true,
        params,
    }
}

/// The deployment host every fleet config is judged against: the files
/// and directories the members' worlds need, and port 80 taken by another
/// process (the generator's own world model).
pub fn host_env(members: &[Member]) -> StaticEnv {
    let mut env = StaticEnv::new();
    env.occupy_port(80);
    for m in members {
        for (path, _) in &m.gen.world_files {
            env.add_file(path);
        }
        for dir in &m.gen.world_dirs {
            env.add_dir(dir);
        }
    }
    env
}
