//! No-op `Serialize`/`Deserialize` derives: `crates/` derives the traits
//! but nothing on the benchmark's path serialises through serde.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
