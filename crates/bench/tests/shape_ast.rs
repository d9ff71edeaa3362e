//! A sweep parses each template shape once and patches every other
//! point's integer slots into that shape's AST. For every point of the
//! four accept-set spaces (Fig. 7 and the three Fig. 8 studies), the
//! patched AST must equal `parse` of the rendered point, spans included,
//! and no point may fall back to the source.

use std::collections::HashMap;

use dahlia_bench::fig8::Study;
use dahlia_core::parse;
use dahlia_dse::{ShapeAst, Slots, SweepSpec};
use dahlia_kernels::gemm::{gemm_blocked_template, GEMM_BLOCKED_AXES};

/// Walk every point of the space, returning its size and shape count.
fn patched_asts_match_the_parser(template: String, axes: &[(&str, &[u64])]) -> (u64, usize) {
    let spec = SweepSpec {
        name: "k".to_string(),
        template,
        params: axes
            .iter()
            .map(|(name, values)| (name.to_string(), values.to_vec()))
            .collect(),
        stage: "est".to_string(),
        stride: 1,
    };
    let plan = spec.plan().unwrap();
    let mut shapes: HashMap<Vec<u8>, ShapeAst> = HashMap::new();
    let mut values = vec![0; plan.axes()];
    let mut source = String::new();
    let mut slots = Slots::default();
    for n in 0..plan.count() {
        plan.decode(n, &mut values);
        plan.render_slots(&values, &mut source, &mut slots);
        for slot in &slots.ints {
            assert_eq!(source[slot.start..slot.end], slot.value.to_string());
        }
        let shape = shapes.entry(slots.shape.clone()).or_insert_with(|| {
            ShapeAst::build(&source, &slots.ints).expect("every slot feeds one leaf")
        });
        let patched = shape
            .patch(&slots.ints)
            .expect("every value fits its field");
        assert!(*patched == parse(&source).unwrap(), "point {n}:\n{source}");
    }
    (plan.count(), shapes.len())
}

#[test]
fn every_accept_set_point_patches_to_its_own_ast() {
    let fig7 = patched_asts_match_the_parser(gemm_blocked_template(128, 8), &GEMM_BLOCKED_AXES);
    assert_eq!(fig7, (32_000, 4));
    let mut points = fig7.0;
    for study in [Study::Stencil2d, Study::MdKnn, Study::MdGrid] {
        let (n, shapes) = patched_asts_match_the_parser(study.template(), study.axes());
        assert!(
            shapes * 100 < n as usize,
            "{}: {shapes} shapes",
            study.name()
        );
        points += n;
    }
    assert_eq!(points, 67_684);
}
