//! End-to-end frontend tests: compile mini-C and execute on the VM,
//! through the `levee_core::Session` embedding API.

use levee_core::{BuildConfig, LeveeError, Session};
use levee_minic::compile;
use levee_vm::{Engine, ExitStatus};

/// Compiles and runs, asserting clean exit; returns the output.
fn run(src: &str) -> String {
    run_with_input(src, b"")
}

fn run_with_input(src: &str, input: &[u8]) -> String {
    let mut session = Session::builder()
        .source(src)
        .name("test")
        .build()
        .expect("compiles");
    session
        .run_ok(input)
        .expect("program should exit cleanly")
        .output
}

#[test]
fn arithmetic_and_precedence() {
    let out = run(r#"
        int main() {
            print_int(1 + 2 * 3);
            print_int((1 + 2) * 3);
            print_int(10 / 3);
            print_int(10 % 3);
            print_int(1 << 4);
            print_int(255 >> 4);
            print_int(12 & 10);
            print_int(12 | 3);
            print_int(12 ^ 10);
            print_int(-5);
            print_int(~0);
            print_int(!0);
            print_int(!42);
            return 0;
        }
    "#);
    assert_eq!(out, "7\n9\n3\n1\n16\n15\n8\n15\n6\n-5\n-1\n1\n0");
}

#[test]
fn comparisons_and_logic() {
    let out = run(r#"
        int main() {
            print_int(3 < 4);
            print_int(4 <= 3);
            print_int(5 == 5 && 6 != 7);
            print_int(0 || 0);
            print_int(1 || crash());
            print_int(0 && crash());
            return 0;
        }
        int crash() { return 1 / 0; }
    "#);
    // Short-circuiting means crash() is never called.
    assert_eq!(out, "1\n0\n1\n0\n1\n0");
}

#[test]
fn locals_pointers_addressof() {
    let out = run(r#"
        int main() {
            int x = 10;
            int *p = &x;
            *p = *p + 5;
            print_int(x);
            int **pp = &p;
            **pp = **pp * 2;
            print_int(x);
            return 0;
        }
    "#);
    assert_eq!(out, "15\n30");
}

#[test]
fn arrays_and_pointer_arithmetic() {
    let out = run(r#"
        int main() {
            int a[5];
            int i;
            for (i = 0; i < 5; i = i + 1) a[i] = i * i;
            int *p = a;
            print_int(a[3]);
            print_int(*(p + 4));
            print_int(p[2]);
            long n = (p + 4) - p;
            print_int(n);
            return 0;
        }
    "#);
    assert_eq!(out, "9\n16\n4\n4");
}

#[test]
fn functions_and_recursion() {
    let out = run(r#"
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            print_int(fib(12));
            return 0;
        }
    "#);
    assert_eq!(out, "144");
}

#[test]
fn structs_members_and_nesting() {
    let out = run(r#"
        struct point { int x; int y; };
        struct rect { struct point tl; struct point br; };
        int area(struct rect *r) {
            return (r->br.x - r->tl.x) * (r->br.y - r->tl.y);
        }
        int main() {
            struct rect r;
            r.tl.x = 1; r.tl.y = 1;
            r.br.x = 5; r.br.y = 4;
            print_int(area(&r));
            struct rect copy;
            copy = r;
            copy.br.x = 11;
            print_int(area(&copy));
            print_int(area(&r));
            return 0;
        }
    "#);
    assert_eq!(out, "12\n30\n12");
}

#[test]
fn linked_list_on_heap() {
    let out = run(r#"
        struct node { int val; struct node* next; };
        int main() {
            struct node* head = 0;
            int i;
            for (i = 0; i < 5; i = i + 1) {
                struct node* n = (struct node*)malloc(sizeof(struct node));
                n->val = i;
                n->next = head;
                head = n;
            }
            int sum = 0;
            while (head != 0) {
                sum = sum * 10 + head->val;
                struct node* dead = head;
                head = head->next;
                free((void*)dead);
            }
            print_int(sum);
            return 0;
        }
    "#);
    assert_eq!(out, "43210");
}

#[test]
fn strings_and_libc() {
    let out = run(r#"
        int main() {
            char buf[32];
            strcpy(buf, "hello");
            strcat(buf, ", world");
            print_str(buf);
            print_int(strlen(buf));
            print_int(strcmp(buf, "hello, world"));
            char dst[8];
            memset(dst, 'x', 7);
            dst[7] = '\0';
            print_str(dst);
            memcpy(dst, buf, 5);
            print_str(dst);
            return 0;
        }
    "#);
    assert_eq!(out, "hello, world\n12\n0\nxxxxxxx\nhelloxx");
}

#[test]
fn function_pointers_and_dispatch_table() {
    let out = run(r#"
        int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int mul(int a, int b) { return a * b; }
        int (*ops[3])(int, int) = {add, sub, mul};
        int main() {
            int i;
            for (i = 0; i < 3; i = i + 1) {
                print_int(ops[i](10, 3));
            }
            int (*f)(int, int) = &sub;
            print_int(f(1, 2));
            return 0;
        }
    "#);
    assert_eq!(out, "13\n7\n30\n-1");
}

#[test]
fn vtable_idiom() {
    let out = run(r#"
        struct shape;
        struct vtable {
            int (*area)(struct shape*);
            int (*peri)(struct shape*);
        };
        struct shape { struct vtable* vt; int w; int h; };
        int rect_area(struct shape* s) { return s->w * s->h; }
        int rect_peri(struct shape* s) { return 2 * (s->w + s->h); }
        struct vtable rect_vt = {rect_area, rect_peri};
        int main() {
            struct shape s;
            s.vt = &rect_vt;
            s.w = 3; s.h = 4;
            print_int(s.vt->area(&s));
            print_int(s.vt->peri(&s));
            return 0;
        }
    "#);
    assert_eq!(out, "12\n14");
}

#[test]
fn void_pointer_round_trip() {
    let out = run(r#"
        int main() {
            int x = 77;
            void* p = (void*)&x;
            int* q = (int*)p;
            print_int(*q);
            return 0;
        }
    "#);
    assert_eq!(out, "77");
}

#[test]
fn globals_with_initializers() {
    let out = run(r#"
        int counter = 5;
        int table[4] = {10, 20, 30, 40};
        char greeting[8] = "hiya";
        char *msg = "indirect";
        int main() {
            counter = counter + 1;
            print_int(counter);
            print_int(table[2]);
            print_str(greeting);
            print_str(msg);
            return 0;
        }
    "#);
    assert_eq!(out, "6\n30\nhiya\nindirect");
}

#[test]
fn read_input_and_input_len() {
    let out = run_with_input(
        r#"
        int main() {
            char buf[16];
            long n = read_input(buf, 15);
            buf[n] = '\0';
            print_str(buf);
            print_int(n);
            return 0;
        }
    "#,
        b"payload",
    );
    assert_eq!(out, "payload\n7");
}

#[test]
fn setjmp_longjmp() {
    let out = run(r#"
        long jb[3];
        void deep(int depth) {
            if (depth == 0) {
                longjmp(jb, 99);
            }
            deep(depth - 1);
        }
        int main() {
            int r = setjmp(jb);
            if (r != 0) {
                print_int(r);
                return 0;
            }
            print_int(1);
            deep(5);
            print_int(2);
            return 0;
        }
    "#);
    assert_eq!(out, "1\n99");
}

#[test]
fn sizeof_and_casts() {
    let out = run(r#"
        struct big { long a; long b; char c; };
        int main() {
            print_int(sizeof(int));
            print_int(sizeof(char));
            print_int(sizeof(void*));
            print_int(sizeof(struct big));
            long raw = (long)"x";
            char* back = (char*)raw;
            print_str(back);
            return 0;
        }
    "#);
    assert_eq!(out, "4\n1\n8\n24\nx");
}

#[test]
fn char_truncation_at_store() {
    let out = run(r#"
        int main() {
            char c = 300;  /* truncates to 44 */
            print_int(c);
            return 0;
        }
    "#);
    assert_eq!(out, "44");
}

#[test]
fn break_continue_nested() {
    let out = run(r#"
        int main() {
            int total = 0;
            int i;
            for (i = 0; i < 10; i = i + 1) {
                if (i == 7) break;
                if (i % 2 == 0) continue;
                total = total + i;
            }
            print_int(total);
            int j = 0;
            while (1) {
                j = j + 1;
                if (j >= 3) break;
            }
            print_int(j);
            return 0;
        }
    "#);
    assert_eq!(out, "9\n3");
}

#[test]
fn sensitive_struct_annotation_is_recorded() {
    let module = compile(
        r#"
        __sensitive struct ucred { int uid; int gid; };
        int main() { return 0; }
    "#,
        "t",
    )
    .unwrap();
    let sid = module.types.struct_by_name("ucred").unwrap();
    assert!(module.types.struct_def(sid).annotated_sensitive);
}

#[test]
fn exit_intrinsic() {
    let mut session = Session::builder()
        .source(r#"int main() { print_int(3); exit(7); print_int(9); return 0; }"#)
        .name("t")
        .build()
        .unwrap();
    let out = session.run(b"");
    assert_eq!(out.status, ExitStatus::Exited(7));
    assert_eq!(out.output, "3");
}

#[test]
fn compile_errors_are_reported() {
    // Malformed source is a typed LeveeError through the Session front
    // door — never a panic.
    for bad in [
        "int main() { return undefined_var; }",
        "int main() { int x; return x(); }",
        "int f(int a); int main() { return f(1, 2); }",
        "struct s { struct s inner; };",
        "int malloc(int x) { return x; }",
        "void g() { } int main() { long y = g(); return 0; }",
        "int main() { return (long)(void)1; }",
    ] {
        assert!(compile(bad, "t").is_err());
        match Session::builder().source(bad).name("t").build() {
            Err(LeveeError::Compile { name, .. }) => assert_eq!(name, "t"),
            Err(other) => panic!("expected Compile error, got {other}"),
            Ok(_) => panic!("must not build: {bad}"),
        }
    }
}

/// `(void)e` evaluates `e` and discards it: no cast to a sizeless type
/// reaches either engine.
#[test]
fn void_cast_discards_its_operand() {
    let src = r#"
        long n;
        void bump() { n = n + 1; }
        int main() { long x = 1; (void)x; (void)bump(); (void)(n = n + x); return n; }
    "#;
    for protection in [BuildConfig::Vanilla, BuildConfig::Cpi] {
        for engine in Engine::all() {
            let mut session = Session::builder()
                .source(src)
                .name("t")
                .protection(protection)
                .engine(*engine)
                .build()
                .expect("compiles");
            let out = session.run(b"");
            assert_eq!(
                out.status,
                ExitStatus::Exited(2),
                "{protection:?} {engine:?}"
            );
        }
    }
}

#[test]
fn multidim_arrays_work() {
    let out = run(r#"
        int grid[3][4];
        int main() {
            int i; int j;
            for (i = 0; i < 3; i = i + 1)
                for (j = 0; j < 4; j = j + 1)
                    grid[i][j] = i * 4 + j;
            print_int(grid[2][3]);
            print_int(grid[1][0]);
            return 0;
        }
    "#);
    assert_eq!(out, "11\n4");
}

#[test]
fn output_identical_across_store_kinds() {
    // Plain (uninstrumented) programs must behave identically under any
    // VM configuration — differential check.
    let src = r#"
        int work(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i = i + 1) acc = acc + i * i;
            return acc;
        }
        int main() { print_int(work(50)); return 0; }
    "#;
    let mut outputs = Vec::new();
    for kind in levee_vm::StoreKind::all() {
        let mut session = Session::builder()
            .source(src)
            .name("t")
            .store(*kind)
            .build()
            .unwrap();
        outputs.push(session.run(b"").output);
    }
    outputs.dedup();
    assert_eq!(outputs.len(), 1);
}
