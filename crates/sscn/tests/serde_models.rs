//! Serde round-trips of the network/weight containers (model persistence).

use esca_sscn::quant::{LayerQuant, QuantizedWeights};
use esca_sscn::rulebook::Rulebook;
use esca_sscn::unet::{SsUNet, UNetConfig};
use esca_sscn::weights::ConvWeights;
use esca_sscn::SscnError;
use esca_tensor::{Coord3, Extent3, SparseTensor};

#[test]
fn conv_weights_roundtrip() {
    let w = ConvWeights::seeded(3, 4, 6, 11);
    let json = serde_json::to_string(&w).unwrap();
    let back: ConvWeights = serde_json::from_str(&json).unwrap();
    assert_eq!(w, back);
}

#[test]
fn quantized_weights_roundtrip_preserves_behaviour() {
    let w = ConvWeights::seeded(3, 2, 4, 12);
    let qw = QuantizedWeights::from_float(&w, LayerQuant::uniform(8, 6).unwrap());
    let json = serde_json::to_string(&qw).unwrap();
    let back: QuantizedWeights = serde_json::from_str(&json).unwrap();
    assert_eq!(qw, back);
    assert_eq!(back.quant(), qw.quant());
    assert_eq!(back.bias_acc(), qw.bias_acc());
}

#[test]
fn unet_json_persistence_is_the_same_network() {
    let net = SsUNet::new(UNetConfig {
        levels: 2,
        base_channels: 4,
        blocks_per_level: 1,
        classes: 3,
        ..Default::default()
    })
    .unwrap();
    let restored = SsUNet::from_json(&net.to_json().unwrap()).unwrap();
    assert_eq!(restored.config(), net.config());
    assert_eq!(restored.subconv_layers().len(), net.subconv_layers().len());
    // Weight-level equality layer by layer.
    for ((na, wa), (nb, wb)) in net.subconv_layers().iter().zip(restored.subconv_layers()) {
        assert_eq!(na, nb);
        assert_eq!(wa, wb);
    }
}

/// The node at `path` in a JSON tree (map keys, or sequence indices in
/// decimal).
fn node<'a>(v: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
    path.iter().fold(v, |v, key| match v {
        serde_json::Value::Map(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).expect("key").1
        }
        serde_json::Value::Seq(items) => &mut items[key.parse::<usize>().expect("index")],
        _ => panic!("no node at {key}"),
    })
}

#[test]
fn unet_json_that_does_not_match_its_config_is_rejected_without_panic() {
    let net = SsUNet::new(UNetConfig {
        levels: 2,
        base_channels: 4,
        blocks_per_level: 1,
        classes: 3,
        ..Default::default()
    })
    .unwrap();
    let valid: serde_json::Value = serde_json::from_str(&net.to_json().unwrap()).unwrap();
    // `Some(n)` sets the number at the path, `None` drops the last element
    // of the sequence there.
    let mutations: [(&[&str], Option<u64>); 18] = [
        (&["cfg", "levels"], Some(3)),
        (&["cfg", "levels"], Some(0)),
        (&["cfg", "levels"], Some(u64::MAX)),
        (&["cfg", "blocks_per_level"], Some(2)),
        (&["cfg", "blocks_per_level"], Some(0)),
        (&["cfg", "blocks_per_level"], Some(u64::MAX)),
        (&["cfg", "base_channels"], Some(5)),
        (&["cfg", "base_channels"], Some(u64::MAX)),
        (&["cfg", "input_channels"], Some(2)),
        (&["cfg", "classes"], Some(0)),
        (&["cfg", "kernel"], Some(5)),
        (&["subconvs"], None),
        (&["subconvs", "1", "1", "data"], None),
        (&["subconvs", "2", "1", "bias"], None),
        (&["subconvs", "3", "1", "in_ch"], Some(4)),
        (&["downs"], None),
        (&["ups", "0", "out_ch"], Some(8)),
        (&["head", "out_ch"], Some(4)),
    ];
    for (path, mutation) in mutations {
        let mut v = valid.clone();
        let at = node(&mut v, path);
        match (mutation, at) {
            (Some(n), at) => *at = serde_json::Value::U64(n),
            (None, serde_json::Value::Seq(items)) => {
                items.pop();
            }
            (None, _) => panic!("{path:?} is not a sequence"),
        }
        let json = serde_json::to_string(&v).unwrap();
        match std::panic::catch_unwind(|| SsUNet::from_json(&json)) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("{path:?} {mutation:?}: accepted a mismatched model"),
            Err(_) => panic!("{path:?} {mutation:?}: from_json panicked"),
        }
    }
    // The unmutated JSON still loads.
    assert!(SsUNet::from_json(&serde_json::to_string(&valid).unwrap()).is_ok());
}

/// A JSON number beyond the `f32` range decodes to ±∞; a model holding
/// one in any weight or bias is rejected with a typed error naming the
/// layer.
#[test]
fn unet_json_with_a_non_finite_weight_is_rejected() {
    let net = SsUNet::new(UNetConfig {
        levels: 2,
        base_channels: 4,
        blocks_per_level: 1,
        classes: 3,
        ..Default::default()
    })
    .unwrap();
    let valid: serde_json::Value = serde_json::from_str(&net.to_json().unwrap()).unwrap();
    let names: Vec<&str> = net
        .subconv_layers()
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let cases: [(&[&str], &str); 7] = [
        (&["subconvs", "0", "1", "data", "0"], names[0]),
        (&["subconvs", "2", "1", "data", "5"], names[2]),
        (&["subconvs", "1", "1", "bias", "3"], names[1]),
        (&["downs", "0", "data", "7"], "down0"),
        (&["ups", "0", "data", "0"], "up0"),
        (&["head", "w", "2"], "head"),
        (&["head", "b", "1"], "head"),
    ];
    for (path, layer) in cases {
        for big in ["1e39", "-1e39"] {
            let mut v = valid.clone();
            // A sentinel no seeded weight holds, swapped for the literal.
            *node(&mut v, path) = serde_json::Value::F64(12345.5);
            let json = serde_json::to_string(&v).unwrap().replace("12345.5", big);
            assert!(json.contains(big), "{path:?}: sentinel not found");
            match SsUNet::from_json(&json) {
                Err(SscnError::NonFiniteWeight { layer: got }) => assert_eq!(got, layer),
                other => panic!("{path:?} = {big}: {other:?}"),
            }
        }
    }
    // The largest finite f32 still loads.
    let mut v = valid.clone();
    *node(&mut v, &["head", "w", "0"]) = serde_json::Value::F64(f64::from(f32::MAX));
    assert!(SsUNet::from_json(&serde_json::to_string(&v).unwrap()).is_ok());
}

#[test]
fn rulebook_roundtrip() {
    let mut t = SparseTensor::<f32>::new(Extent3::cube(6), 1);
    t.insert(Coord3::new(1, 1, 1), &[1.0]).unwrap();
    t.insert(Coord3::new(1, 1, 2), &[2.0]).unwrap();
    let rb = Rulebook::build(&t, 3);
    let json = serde_json::to_string(&rb).unwrap();
    let back: Rulebook = serde_json::from_str(&json).unwrap();
    assert_eq!(rb, back);
    assert_eq!(back.total_matches(), 4);
}

#[test]
fn sparse_tensor_serde_rebuilds_index() {
    // SparseTensor skips its hash index during (de)serialization; the
    // decoded tensor builds it again, so lookups work after a round-trip.
    let mut t = SparseTensor::<f32>::new(Extent3::cube(4), 1);
    t.insert(Coord3::new(1, 2, 3), &[5.0]).unwrap();
    t.insert(Coord3::new(0, 0, 1), &[6.0]).unwrap();
    let json = serde_json::to_string(&t).unwrap();
    let mut back: SparseTensor<f32> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.coords(), t.coords(), "storage order is preserved");
    assert_eq!(back.feature(Coord3::new(1, 2, 3)), Some(&[5.0][..]));
    assert!(back.contains(Coord3::new(0, 0, 1)));
    assert!(back.same_content(&t));
    assert_eq!(back.active_fingerprint(), t.active_fingerprint());
    // Re-inserting a decoded coordinate overwrites instead of appending a
    // duplicate site.
    back.insert(Coord3::new(1, 2, 3), &[7.0]).unwrap();
    assert_eq!(back.nnz(), 2);
    assert_eq!(back.feature(Coord3::new(1, 2, 3)), Some(&[7.0][..]));
}

#[test]
fn sparse_tensor_decode_rejects_inconsistent_payloads() {
    let decode = |json: &str| serde_json::from_str::<SparseTensor<f32>>(json);
    let extent = r#""extent":{"x":4,"y":4,"z":4}"#;
    let ok =
        format!(r#"{{{extent},"channels":1,"coords":[{{"x":1,"y":1,"z":1}}],"features":[1.0]}}"#);
    assert!(decode(&ok).is_ok());
    let cases = [
        (
            "out of bounds",
            r#""channels":1,"coords":[{"x":4,"y":0,"z":0}],"features":[1.0]"#,
        ),
        (
            "duplicate",
            r#""channels":1,"coords":[{"x":1,"y":1,"z":1},{"x":1,"y":1,"z":1}],"features":[1.0,2.0]"#,
        ),
        (
            "short features",
            r#""channels":2,"coords":[{"x":1,"y":1,"z":1}],"features":[1.0]"#,
        ),
        ("zero channels", r#""channels":0,"coords":[],"features":[]"#),
    ];
    for (what, body) in cases {
        let json = format!("{{{extent},{body}}}");
        assert!(decode(&json).is_err(), "{what} payload must be rejected");
    }
}

#[test]
fn sparse_tensor_json_wire_shape_is_pinned() {
    // A shuffled (non-raster) tensor: storage order must reach the wire.
    let mut t = SparseTensor::<f32>::new(Extent3::new(4, 5, 6), 2);
    t.insert(Coord3::new(3, 0, 5), &[1.5, -2.0]).unwrap();
    t.insert(Coord3::new(0, 4, 1), &[0.25, 3.0]).unwrap();
    t.insert(Coord3::new(0, 0, 0), &[-0.125, 1e-3]).unwrap();
    let json = serde_json::to_string(&t).unwrap();
    assert_eq!(
        json,
        concat!(
            r#"{"extent":{"x":4,"y":5,"z":6},"channels":2,"#,
            r#""coords":[{"x":3,"y":0,"z":5},{"x":0,"y":4,"z":1},{"x":0,"y":0,"z":0}],"#,
            r#""features":[1.5,-2.0,0.25,3.0,-0.125,0.001]}"#
        )
    );
    let back: SparseTensor<f32> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.coords(), t.coords());
    assert_eq!(back.features(), t.features());
}
