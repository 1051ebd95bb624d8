//! One-call setup: materialise every bundled workload and return the board
//! plus a ready search path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use marshal_config::SearchPath;
use marshal_core::Board;

use crate::runtime::compose_benchmark;

/// A complete environment: the board, the search path covering all bundled
/// workloads, and the directory they were materialised into.
#[derive(Debug)]
pub struct Setup {
    /// The Chipyard-like board.
    pub board: Board,
    /// Search path: built-in bases + every bundled workload directory.
    pub search: SearchPath,
    /// Root of the materialised workload sources.
    pub dir: PathBuf,
}

/// The quickstart workload: hello-world with an output file and reference.
pub const HELLO_JSON: &str = r#"{
    "name": "hello",
    "base": "br-base.json",
    "host-init": "build.ms",
    "overlay": "overlay",
    "command": "/bin/hello",
    "outputs": ["/output"],
    "testing": { "refDir": "refs" }
}
"#;

fn hello_source() -> String {
    compose_benchmark(
        "hello",
        r#"
        .data
__greeting: .asciiz "Hello from FireMarshal!\n"
__out_path: .asciiz "/output/hello.txt"
__out_body: .ascii  "greetings\n"
        .text
bench_main:
        addi    sp, sp, -16
        sd      ra, 8(sp)
        la      a0, __greeting
        call    print_cstr
        # write /output/hello.txt
        la      a0, __out_path
        li      a1, 1              # O_WRONLY
        li      a7, 1024           # OPEN
        ecall
        mv      t0, a0
        mv      a0, t0
        la      a1, __out_body
        li      a2, 10
        li      a7, 64             # WRITE
        ecall
        mv      a0, t0
        li      a7, 57             # CLOSE
        ecall
        li      a0, 42
        ld      ra, 8(sp)
        addi    sp, sp, 16
        ret
"#,
    )
}

/// Materialises the quickstart workload.
fn materialize_hello(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("overlay/bin"))?;
    std::fs::create_dir_all(dir.join("refs"))?;
    write_if_changed(&dir.join("hello.json"), HELLO_JSON)?;
    write_if_changed(
        &dir.join("build.ms"),
        "#!mscript\nassemble(\"src/hello.s\", \"overlay/bin/hello\")\n",
    )?;
    write_if_changed(&dir.join("src/hello.s"), hello_source())?;
    write_if_changed(
        &dir.join("refs/uartlog"),
        "Hello from FireMarshal!\nhello checksum: 42\n",
    )?;
    Ok(())
}

/// Writes `contents` to `path` unless the file already holds exactly those
/// bytes. A changed file is written to a uniquely named temp file in the
/// same directory and renamed into place, so a concurrent reader sees the
/// old bytes or the new ones, never a truncated file.
///
/// # Errors
///
/// I/O failures writing or renaming the temp file (which is then removed).
pub(crate) fn write_if_changed(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let contents = contents.as_ref();
    if std::fs::read(path).is_ok_and(|old| old == contents) {
        return Ok(());
    }
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Materialises every bundled workload under `root/workloads/` and builds
/// the standard board + search path.
///
/// Runs no guest code, and writes only the files whose bytes differ from
/// what is on disk (see [`write_if_changed`]): a second call on a current
/// tree writes nothing, so incremental builds stay incremental and a
/// concurrent `marshal` process never reads a half-written spec.
///
/// # Errors
///
/// I/O failures creating the tree.
pub fn setup(root: &Path) -> std::io::Result<Setup> {
    let dir = root.join("workloads");
    let intspeed_dir = dir.join("intspeed");
    let pfa_dir = dir.join("pfa");
    let coremark_dir = dir.join("coremark");
    let dnn_dir = dir.join("onnx");
    let hello_dir = dir.join("quickstart");
    crate::intspeed::materialize(&intspeed_dir)?;
    crate::pfa::materialize(&pfa_dir)?;
    crate::coremark::materialize(&coremark_dir)?;
    crate::dnn::materialize(&dnn_dir)?;
    materialize_hello(&hello_dir)?;

    let mut search = SearchPath::new();
    for (name, text) in crate::bases::all() {
        search.add_builtin(name, text);
    }
    search.add_dir(&intspeed_dir);
    search.add_dir(&pfa_dir);
    search.add_dir(&coremark_dir);
    search.add_dir(&dnn_dir);
    search.add_dir(&hello_dir);

    Ok(Setup {
        board: crate::board::chipyard_board(),
        search,
        dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_core::{launch, BuildOptions, Builder};
    use std::collections::BTreeMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("marshal-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn setup_materialises_everything() {
        let root = tmpdir("setup");
        let s = setup(&root).unwrap();
        assert!(s.dir.join("intspeed/intspeed.json").exists());
        assert!(s.dir.join("intspeed/src/600.perlbench_s.s").exists());
        assert!(s.dir.join("pfa/pfa-base.json").exists());
        assert!(s.dir.join("coremark/coremark.json").exists());
        assert!(s.dir.join("quickstart/hello.json").exists());
        assert!(s.search.locate("br-base.json").is_some());
        assert!(s.search.locate("intspeed.json").is_some());
        // Idempotent.
        setup(&root).unwrap();
        std::fs::remove_dir_all(root).unwrap();
    }

    /// Every file under `dir`: relative path -> (inode, mtime, bytes).
    #[cfg(unix)]
    fn snapshot(dir: &Path) -> BTreeMap<PathBuf, (u64, std::time::SystemTime, Vec<u8>)> {
        use std::os::unix::fs::MetadataExt;
        let mut files = BTreeMap::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                let meta = std::fs::metadata(&path).unwrap();
                if meta.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                    let bytes = std::fs::read(&path).unwrap();
                    files.insert(rel, (meta.ino(), meta.modified().unwrap(), bytes));
                }
            }
        }
        files
    }

    #[cfg(unix)]
    fn assert_no_temp_files(files: &BTreeMap<PathBuf, (u64, std::time::SystemTime, Vec<u8>)>) {
        for path in files.keys() {
            let name = path.file_name().unwrap().to_string_lossy();
            assert!(!name.ends_with(".tmp"), "setup left a temp file: {path:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn second_setup_on_a_current_tree_writes_nothing() {
        let root = tmpdir("noop");
        let dir = setup(&root).unwrap().dir;
        let before = snapshot(&dir);
        assert_no_temp_files(&before);
        setup(&root).unwrap();
        let after = snapshot(&dir);
        // Same files, same bytes, same inodes and mtimes: nothing written.
        assert_eq!(before, after);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn setup_restores_damaged_files_by_renaming_them_into_place() {
        let root = tmpdir("restore");
        let dir = setup(&root).unwrap().dir;
        let before = snapshot(&dir);
        let truncated = PathBuf::from("coremark/refs/uartlog");
        let edited = PathBuf::from("quickstart/hello.json");
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(&truncated))
            .unwrap()
            .set_len(0)
            .unwrap();
        std::fs::write(dir.join(&edited), "{}").unwrap();
        setup(&root).unwrap();
        let after = snapshot(&dir);
        assert_no_temp_files(&after);
        assert_eq!(
            before.keys().collect::<Vec<_>>(),
            after.keys().collect::<Vec<_>>()
        );
        for (path, (ino, mtime, bytes)) in &before {
            let (new_ino, new_mtime, new_bytes) = &after[path];
            assert_eq!(bytes, new_bytes, "{path:?} not restored");
            if *path == truncated || *path == edited {
                // A new inode: the file was renamed into place, not
                // truncated and rewritten where a reader could see it.
                assert_ne!(ino, new_ino, "{path:?} was rewritten in place");
            } else {
                assert_eq!((ino, mtime), (new_ino, new_mtime), "{path:?} rewritten");
            }
        }
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let root = tmpdir("failed-write");
        // A non-empty directory where the file should go: the rename fails.
        std::fs::create_dir_all(root.join("target/inner")).unwrap();
        assert!(write_if_changed(&root.join("target"), "bytes").is_err());
        let names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["target"], "temp file left behind");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn hello_builds_launches_and_produces_outputs() {
        let root = tmpdir("hello");
        let s = setup(&root).unwrap();
        let mut builder = Builder::new(s.board, s.search, root.join("work")).unwrap();
        let products = builder
            .build("hello.json", &BuildOptions::default())
            .unwrap();
        assert_eq!(products.jobs.len(), 1);
        let run = launch::launch_workload(&builder, &products, &Default::default()).unwrap();
        let out = &run.jobs[0];
        assert!(
            out.serial.contains("Hello from FireMarshal!"),
            "{}",
            out.serial
        );
        assert!(out.serial.contains("hello checksum: 42"));
        assert_eq!(out.exit_code, 0);
        assert!(out.job_dir.join("uartlog").exists());
        assert!(out.job_dir.join("output/hello.txt").exists());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn hello_test_command_passes() {
        let root = tmpdir("hellotest");
        let s = setup(&root).unwrap();
        let mut builder = Builder::new(s.board, s.search, root.join("work")).unwrap();
        let outcomes = marshal_core::test::test_workload(
            &mut builder,
            "hello.json",
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        assert!(outcomes.iter().all(|o| o.passed()), "{outcomes:?}");
        assert!(matches!(outcomes[0], marshal_core::TestOutcome::Pass));
        std::fs::remove_dir_all(root).unwrap();
    }
}
