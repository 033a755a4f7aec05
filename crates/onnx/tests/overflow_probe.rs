use ramiel_onnx::proto::{
    data_type, GraphProto, ModelProto, NodeProto, TensorProto, ValueInfoProto,
};

#[test]
fn hostile_dims_product_overflow() {
    // dims whose product overflows u64/usize: (1<<33) * (1<<33) = 1<<66
    let t = TensorProto {
        name: "w".into(),
        dims: vec![1i64 << 33, 1i64 << 33],
        data_type: data_type::FLOAT,
        raw_data: vec![],
        ..Default::default()
    };
    let gp = GraphProto {
        name: "g".into(),
        initializer: vec![t],
        input: vec![ValueInfoProto::tensor("x", data_type::FLOAT, &[1, 4])],
        output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 4])],
        node: vec![NodeProto {
            name: "relu".into(),
            op_type: "Relu".into(),
            input: vec!["x".into()],
            output: vec!["y".into()],
            ..Default::default()
        }],
        ..Default::default()
    };
    let m = ModelProto {
        ir_version: 8,
        opset_import: vec![(String::new(), 13)],
        graph: Some(gp),
        ..Default::default()
    };
    let bytes = m.encode();
    let res = ramiel_onnx::import_model(&bytes);
    eprintln!("import result: {:?}", res.as_ref().map(|_| "OK"));
    assert!(res.is_err(), "hostile dims were accepted");
}

#[test]
fn hostile_input_dims_feeding_flatten() {
    // A graph input whose element count is 2^66: multiplying its dims
    // overflows usize.
    let gp = GraphProto {
        name: "g".into(),
        input: vec![ValueInfoProto::tensor(
            "x",
            data_type::FLOAT,
            &[1, 1 << 33, 1 << 33],
        )],
        output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 1])],
        node: vec![NodeProto {
            name: "flatten".into(),
            op_type: "Flatten".into(),
            input: vec!["x".into()],
            output: vec!["y".into()],
            ..Default::default()
        }],
        ..Default::default()
    };
    let m = ModelProto {
        ir_version: 8,
        opset_import: vec![(String::new(), 13)],
        graph: Some(gp),
        ..Default::default()
    };
    let err = ramiel_onnx::import_model(&m.encode()).expect_err("hostile dims were accepted");
    assert_eq!(err.code(), "ONNX-SHAPE", "{err}");
}
