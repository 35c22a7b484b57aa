//! `simlint` — the CO-MAP workspace linter CLI.
//!
//! See the `comap_lint` crate docs for the rule set. This binary is the
//! CI gate: it exits non-zero whenever an unsuppressed finding exists
//! anywhere in the workspace's library code, or when a suppression
//! budget ([`comap_lint::report::BUDGETS`]) is exceeded.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use comap_lint::report::{check_budgets, render_human, render_json, BUDGETS};
use comap_lint::workspace::{collect_sources, crate_of, discover_workspace, load_source};
use comap_lint::{lint_files, SourceFile};

const USAGE: &str = "\
usage: simlint [options] [paths...]

options:
  --workspace            lint every library source in the workspace
  --json <path>          also write a schema-stamped JSON report to <path>
  --quiet                print only the summary and allows lines
  -h, --help             show this help

exit status: 0 clean, 1 findings or budget exceeded, 2 usage or I/O error";

struct Options {
    workspace: bool,
    json: Option<PathBuf>,
    quiet: bool,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        json: None,
        quiet: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag: {flag}"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        return Err("nothing to lint: pass --workspace or explicit paths".to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = discover_workspace(&cwd)
        .ok_or("no workspace root (Cargo.toml with [workspace]) above the current directory")?;

    let mut files: Vec<SourceFile> = Vec::new();
    if opts.workspace {
        files = collect_sources(&root).map_err(|e| format!("walking workspace: {e}"))?;
    }
    for path in &opts.paths {
        let abs = if path.is_absolute() {
            path.clone()
        } else {
            cwd.join(path)
        };
        let rel_guess = abs
            .strip_prefix(&root)
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .unwrap_or_else(|_| abs.to_string_lossy().to_string());
        let file = load_source(&root, &abs, &crate_of(&rel_guess))
            .map_err(|e| format!("reading {}: {e}", abs.display()))?;
        files.push(file);
    }

    let mut outcome = lint_files(&files);
    let over_budget = check_budgets(&outcome, &BUDGETS);
    outcome.findings.extend(over_budget);

    if let Some(json_path) = &opts.json {
        if let Some(parent) = json_path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        fs::write(json_path, render_json(&outcome, &BUDGETS))
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }

    let text = render_human(&outcome);
    if opts.quiet {
        // The last two lines are the summary and the allows census.
        for line in text.lines().rev().take(2).collect::<Vec<_>>().iter().rev() {
            println!("{line}");
        }
    } else {
        print!("{text}");
    }
    Ok(outcome.findings.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("simlint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            ExitCode::from(2)
        }
    }
}
